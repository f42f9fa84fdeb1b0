//! Hand-rolled binary codec for WAL payloads.
//!
//! The container has no registry access and the vendored `serde_json`
//! stand-in is `Value`-only, so the WAL frames its payloads with a small
//! explicit binary format instead: little-endian fixed-width integers,
//! u64-length-prefixed strings and sequences, and one tag byte per enum
//! variant. Every encoder has exactly one decoder next to it; the format
//! is versioned only through the WAL file magic (`WAL_MAGIC`).

use mvc_core::{
    ActionList, Color, CommitPolicy, CommitStats, EngineSnapshot, Entry, MergeAlgorithm,
    MergeSnapshot, MergeStats, PaSnapshot, PaStats, PaintEvent, SchedulerSnapshot, SpaSnapshot,
    SpaStats, TxnSeq, UpdateId, ViewId, VutSnapshot, WarehouseTxn,
};
use mvc_relational::{
    Attribute, Delta, Relation, RelationName, Schema, Tuple, Value, ValueType, ViewName,
};
use mvc_source::{GlobalSeq, RelationChange, SourceId, SourceUpdate};
use mvc_viewmgr::{QueryAnswer, QueryToken};
use mvc_warehouse::{CommittedTxn, WarehouseSnapshot};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Decode failure. The WAL layer treats any decode error inside a frame
/// whose checksum matched as corruption (the checksum makes this
/// practically unreachable, but the decoder never panics either way).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended mid-value.
    Eof,
    /// A tag byte, length, or invariant did not decode to a valid value.
    Invalid(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Eof => write!(f, "unexpected end of input"),
            CodecError::Invalid(what) => write!(f, "invalid encoding: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Cursor over an encoded byte slice.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    pub fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(n).ok_or(CodecError::Eof)?;
        if end > self.buf.len() {
            return Err(CodecError::Eof);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }
}

/// Symmetric encode/decode pair. Implementations append to `out` and
/// must consume exactly what they wrote.
pub trait Codec: Sized {
    fn encode(&self, out: &mut Vec<u8>);
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError>;
}

/// Encode a value into a fresh buffer.
pub fn to_bytes<T: Codec>(v: &T) -> Vec<u8> {
    let mut out = Vec::new();
    v.encode(&mut out);
    out
}

/// Decode a value from a buffer, requiring full consumption.
pub fn from_bytes<T: Codec>(buf: &[u8]) -> Result<T, CodecError> {
    let mut r = Reader::new(buf);
    let v = T::decode(&mut r)?;
    if !r.is_empty() {
        return Err(CodecError::Invalid("trailing bytes"));
    }
    Ok(v)
}

// ---------------------------------------------------------------- primitives

impl Codec for u8 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(r.take(1)?[0])
    }
}

impl Codec for u32 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(u32::from_le_bytes(r.take(4)?.try_into().expect("4 bytes")))
    }
}

impl Codec for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(u64::from_le_bytes(r.take(8)?.try_into().expect("8 bytes")))
    }
}

impl Codec for i64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(i64::from_le_bytes(r.take(8)?.try_into().expect("8 bytes")))
    }
}

impl Codec for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        usize::try_from(u64::decode(r)?).map_err(|_| CodecError::Invalid("usize overflow"))
    }
}

impl Codec for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match u8::decode(r)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Invalid("bool tag")),
        }
    }
}

impl Codec for f64 {
    fn encode(&self, out: &mut Vec<u8>) {
        self.to_bits().encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(f64::from_bits(u64::decode(r)?))
    }
}

impl Codec for String {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let len = usize::decode(r)?;
        let bytes = r.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::Invalid("utf-8 string"))
    }
}

// ---------------------------------------------------------------- containers

impl<T: Codec> Codec for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match u8::decode(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            _ => Err(CodecError::Invalid("option tag")),
        }
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        for v in self {
            v.encode(out);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let len = usize::decode(r)?;
        // Length sanity: each element needs at least one input byte, so a
        // huge length in a corrupt frame fails fast instead of allocating.
        if len > r.buf.len() {
            return Err(CodecError::Invalid("sequence length"));
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<K: Codec + Ord, V: Codec> Codec for BTreeMap<K, V> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        for (k, v) in self {
            k.encode(out);
            v.encode(out);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let len = usize::decode(r)?;
        if len > r.buf.len() {
            return Err(CodecError::Invalid("map length"));
        }
        let mut out = BTreeMap::new();
        for _ in 0..len {
            let k = K::decode(r)?;
            let v = V::decode(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

impl<T: Codec + Ord> Codec for BTreeSet<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        for v in self {
            v.encode(out);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let len = usize::decode(r)?;
        if len > r.buf.len() {
            return Err(CodecError::Invalid("set length"));
        }
        let mut out = BTreeSet::new();
        for _ in 0..len {
            out.insert(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<A: Codec, B: Codec, C: Codec, D: Codec> Codec for (A, B, C, D) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
        self.2.encode(out);
        self.3.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?, D::decode(r)?))
    }
}

// ------------------------------------------------------------------ id types

macro_rules! newtype_codec {
    ($t:ty, $inner:ty, $ctor:expr) => {
        impl Codec for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                self.0.encode(out);
            }
            fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                Ok($ctor(<$inner>::decode(r)?))
            }
        }
    };
}

newtype_codec!(UpdateId, u64, UpdateId);
newtype_codec!(TxnSeq, u64, TxnSeq);
newtype_codec!(ViewId, u32, ViewId);
newtype_codec!(GlobalSeq, u64, GlobalSeq);
newtype_codec!(SourceId, u32, SourceId);
newtype_codec!(QueryToken, u64, QueryToken);

impl Codec for RelationName {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_str().to_owned().encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(RelationName::new(String::decode(r)?))
    }
}

impl Codec for ViewName {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_str().to_owned().encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(ViewName::new(String::decode(r)?))
    }
}

// ------------------------------------------------------------- data model

impl Codec for Value {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Value::Null => out.push(0),
            Value::Bool(b) => {
                out.push(1);
                b.encode(out);
            }
            Value::Int(i) => {
                out.push(2);
                i.encode(out);
            }
            Value::Float(f) => {
                out.push(3);
                f.encode(out);
            }
            Value::Str(s) => {
                out.push(4);
                s.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(match u8::decode(r)? {
            0 => Value::Null,
            1 => Value::Bool(bool::decode(r)?),
            2 => Value::Int(i64::decode(r)?),
            3 => Value::Float(f64::decode(r)?),
            4 => Value::Str(String::decode(r)?),
            _ => return Err(CodecError::Invalid("value tag")),
        })
    }
}

impl Codec for ValueType {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            ValueType::Null => 0,
            ValueType::Bool => 1,
            ValueType::Int => 2,
            ValueType::Float => 3,
            ValueType::Str => 4,
        });
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(match u8::decode(r)? {
            0 => ValueType::Null,
            1 => ValueType::Bool,
            2 => ValueType::Int,
            3 => ValueType::Float,
            4 => ValueType::Str,
            _ => return Err(CodecError::Invalid("value-type tag")),
        })
    }
}

impl Codec for Tuple {
    fn encode(&self, out: &mut Vec<u8>) {
        self.values().to_vec().encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Tuple::new(Vec::<Value>::decode(r)?))
    }
}

impl Codec for Attribute {
    fn encode(&self, out: &mut Vec<u8>) {
        self.name.encode(out);
        self.ty.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let name = String::decode(r)?;
        let ty = ValueType::decode(r)?;
        Ok(Attribute::new(name, ty))
    }
}

impl Codec for Schema {
    fn encode(&self, out: &mut Vec<u8>) {
        self.attributes().to_vec().encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Schema::new(Vec::<Attribute>::decode(r)?).map_err(|_| CodecError::Invalid("schema"))
    }
}

impl Codec for Relation {
    fn encode(&self, out: &mut Vec<u8>) {
        self.schema().encode(out);
        self.distinct_len().encode(out);
        for (t, n) in self.iter_counted() {
            t.encode(out);
            n.encode(out);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let schema = Schema::decode(r)?;
        let len = usize::decode(r)?;
        if len > r.buf.len() {
            return Err(CodecError::Invalid("relation length"));
        }
        let mut rel = Relation::new(schema);
        for _ in 0..len {
            let t = Tuple::decode(r)?;
            let n = u64::decode(r)?;
            rel.insert_n(t, n)
                .map_err(|_| CodecError::Invalid("relation tuple"))?;
        }
        Ok(rel)
    }
}

impl Codec for Delta {
    fn encode(&self, out: &mut Vec<u8>) {
        self.distinct_len().encode(out);
        for (t, n) in self.iter() {
            t.encode(out);
            n.encode(out);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let len = usize::decode(r)?;
        if len > r.buf.len() {
            return Err(CodecError::Invalid("delta length"));
        }
        let mut d = Delta::new();
        for _ in 0..len {
            let t = Tuple::decode(r)?;
            let n = i64::decode(r)?;
            d.add(t, n);
        }
        Ok(d)
    }
}

// ----------------------------------------------------------- source updates

impl Codec for RelationChange {
    fn encode(&self, out: &mut Vec<u8>) {
        self.relation.encode(out);
        self.delta.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(RelationChange {
            relation: RelationName::decode(r)?,
            delta: Delta::decode(r)?,
        })
    }
}

impl Codec for SourceUpdate {
    fn encode(&self, out: &mut Vec<u8>) {
        self.seq.encode(out);
        self.source.encode(out);
        self.changes.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(SourceUpdate {
            seq: GlobalSeq::decode(r)?,
            source: SourceId::decode(r)?,
            changes: Vec::<RelationChange>::decode(r)?,
        })
    }
}

// ---------------------------------------------------------------- core types

impl Codec for Color {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            Color::White => 0,
            Color::Red => 1,
            Color::Gray => 2,
            Color::Black => 3,
        });
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(match u8::decode(r)? {
            0 => Color::White,
            1 => Color::Red,
            2 => Color::Gray,
            3 => Color::Black,
            _ => return Err(CodecError::Invalid("color tag")),
        })
    }
}

impl Codec for Entry {
    fn encode(&self, out: &mut Vec<u8>) {
        self.color.encode(out);
        self.state.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Entry {
            color: Color::decode(r)?,
            state: UpdateId::decode(r)?,
        })
    }
}

impl Codec for PaintEvent {
    fn encode(&self, out: &mut Vec<u8>) {
        self.update.encode(out);
        self.view.encode(out);
        self.color.encode(out);
        self.state.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(PaintEvent {
            update: UpdateId::decode(r)?,
            view: ViewId::decode(r)?,
            color: Color::decode(r)?,
            state: UpdateId::decode(r)?,
        })
    }
}

impl<P: Codec> Codec for ActionList<P> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.view.encode(out);
        self.first.encode(out);
        self.last.encode(out);
        self.payload.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(ActionList {
            view: ViewId::decode(r)?,
            first: UpdateId::decode(r)?,
            last: UpdateId::decode(r)?,
            payload: P::decode(r)?,
        })
    }
}

impl<P: Codec> Codec for WarehouseTxn<P> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.seq.encode(out);
        self.rows.encode(out);
        self.actions.encode(out);
        self.views.encode(out);
        self.frontier.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(WarehouseTxn {
            seq: TxnSeq::decode(r)?,
            rows: Vec::<UpdateId>::decode(r)?,
            actions: Vec::<ActionList<P>>::decode(r)?,
            views: BTreeSet::<ViewId>::decode(r)?,
            frontier: UpdateId::decode(r)?,
        })
    }
}

impl Codec for CommitPolicy {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            CommitPolicy::Immediate => out.push(0),
            CommitPolicy::Sequential => out.push(1),
            CommitPolicy::DependencyAware => out.push(2),
            CommitPolicy::Batched { max_batch } => {
                out.push(3);
                max_batch.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(match u8::decode(r)? {
            0 => CommitPolicy::Immediate,
            1 => CommitPolicy::Sequential,
            2 => CommitPolicy::DependencyAware,
            3 => CommitPolicy::Batched {
                max_batch: usize::decode(r)?,
            },
            _ => return Err(CodecError::Invalid("commit-policy tag")),
        })
    }
}

impl Codec for MergeAlgorithm {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            MergeAlgorithm::Spa => 0,
            MergeAlgorithm::Pa => 1,
            MergeAlgorithm::PassThrough => 2,
        });
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(match u8::decode(r)? {
            0 => MergeAlgorithm::Spa,
            1 => MergeAlgorithm::Pa,
            2 => MergeAlgorithm::PassThrough,
            _ => return Err(CodecError::Invalid("merge-algorithm tag")),
        })
    }
}

// -------------------------------------------------------------- stats blocks

impl Codec for SpaStats {
    fn encode(&self, out: &mut Vec<u8>) {
        self.rels_received.encode(out);
        self.actions_received.encode(out);
        self.txns_emitted.encode(out);
        self.rows_purged.encode(out);
        self.max_live_rows.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(SpaStats {
            rels_received: u64::decode(r)?,
            actions_received: u64::decode(r)?,
            txns_emitted: u64::decode(r)?,
            rows_purged: u64::decode(r)?,
            max_live_rows: usize::decode(r)?,
        })
    }
}

impl Codec for PaStats {
    fn encode(&self, out: &mut Vec<u8>) {
        self.rels_received.encode(out);
        self.actions_received.encode(out);
        self.batched_actions.encode(out);
        self.txns_emitted.encode(out);
        self.rows_applied.encode(out);
        self.max_live_rows.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(PaStats {
            rels_received: u64::decode(r)?,
            actions_received: u64::decode(r)?,
            batched_actions: u64::decode(r)?,
            txns_emitted: u64::decode(r)?,
            rows_applied: u64::decode(r)?,
            max_live_rows: usize::decode(r)?,
        })
    }
}

impl Codec for MergeStats {
    fn encode(&self, out: &mut Vec<u8>) {
        self.rels_received.encode(out);
        self.actions_received.encode(out);
        self.txns_emitted.encode(out);
        self.max_live_rows.encode(out);
        self.batched_actions.encode(out);
        self.rows_applied.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(MergeStats {
            rels_received: u64::decode(r)?,
            actions_received: u64::decode(r)?,
            txns_emitted: u64::decode(r)?,
            max_live_rows: usize::decode(r)?,
            batched_actions: u64::decode(r)?,
            rows_applied: u64::decode(r)?,
        })
    }
}

impl Codec for CommitStats {
    fn encode(&self, out: &mut Vec<u8>) {
        self.submitted.encode(out);
        self.released.encode(out);
        self.committed.encode(out);
        self.coalesced.encode(out);
        self.max_inflight.encode(out);
        self.max_queue.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(CommitStats {
            submitted: u64::decode(r)?,
            released: u64::decode(r)?,
            committed: u64::decode(r)?,
            coalesced: u64::decode(r)?,
            max_inflight: usize::decode(r)?,
            max_queue: usize::decode(r)?,
        })
    }
}

// --------------------------------------------------------- engine snapshots

impl<P: Codec> Codec for VutSnapshot<P> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.views.encode(out);
        self.rows.encode(out);
        self.wt.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(VutSnapshot {
            views: Vec::<ViewId>::decode(r)?,
            rows: BTreeMap::decode(r)?,
            wt: BTreeMap::decode(r)?,
        })
    }
}

impl<P: Codec> Codec for SpaSnapshot<P> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.vut.encode(out);
        self.max_rel.encode(out);
        self.pending.encode(out);
        self.next_seq.encode(out);
        self.stats.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(SpaSnapshot {
            vut: VutSnapshot::decode(r)?,
            max_rel: UpdateId::decode(r)?,
            pending: BTreeMap::decode(r)?,
            next_seq: TxnSeq::decode(r)?,
            stats: SpaStats::decode(r)?,
        })
    }
}

impl<P: Codec> Codec for PaSnapshot<P> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.vut.encode(out);
        self.max_rel.encode(out);
        self.pending.encode(out);
        self.next_seq.encode(out);
        self.last_covered.encode(out);
        self.stats.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(PaSnapshot {
            vut: VutSnapshot::decode(r)?,
            max_rel: UpdateId::decode(r)?,
            pending: BTreeMap::decode(r)?,
            next_seq: TxnSeq::decode(r)?,
            last_covered: BTreeMap::decode(r)?,
            stats: PaStats::decode(r)?,
        })
    }
}

impl<P: Codec> Codec for EngineSnapshot<P> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            EngineSnapshot::Spa(s) => {
                out.push(0);
                s.encode(out);
            }
            EngineSnapshot::Pa(p) => {
                out.push(1);
                p.encode(out);
            }
            EngineSnapshot::PassThrough { next_seq, stats } => {
                out.push(2);
                next_seq.encode(out);
                stats.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(match u8::decode(r)? {
            0 => EngineSnapshot::Spa(SpaSnapshot::decode(r)?),
            1 => EngineSnapshot::Pa(PaSnapshot::decode(r)?),
            2 => EngineSnapshot::PassThrough {
                next_seq: TxnSeq::decode(r)?,
                stats: MergeStats::decode(r)?,
            },
            _ => return Err(CodecError::Invalid("engine-snapshot tag")),
        })
    }
}

impl<P: Codec> Codec for SchedulerSnapshot<P> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.policy.encode(out);
        self.queue.encode(out);
        self.held_bwt.encode(out);
        self.inflight.encode(out);
        self.stats.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(SchedulerSnapshot {
            policy: CommitPolicy::decode(r)?,
            queue: Vec::decode(r)?,
            held_bwt: Option::decode(r)?,
            inflight: BTreeMap::decode(r)?,
            stats: CommitStats::decode(r)?,
        })
    }
}

impl<P: Codec> Codec for MergeSnapshot<P> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.algorithm.encode(out);
        self.engine.encode(out);
        self.scheduler.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(MergeSnapshot {
            algorithm: MergeAlgorithm::decode(r)?,
            engine: EngineSnapshot::decode(r)?,
            scheduler: SchedulerSnapshot::decode(r)?,
        })
    }
}

// ----------------------------------------------------------- query protocol

impl Codec for QueryAnswer {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            QueryAnswer::Delta(d) => {
                out.push(0);
                d.encode(out);
            }
            QueryAnswer::Rows(rel, seq) => {
                out.push(1);
                rel.encode(out);
                seq.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(match u8::decode(r)? {
            0 => QueryAnswer::Delta(Delta::decode(r)?),
            1 => QueryAnswer::Rows(Relation::decode(r)?, GlobalSeq::decode(r)?),
            _ => return Err(CodecError::Invalid("query-answer tag")),
        })
    }
}

// ------------------------------------------------------------ warehouse side

impl Codec for CommittedTxn {
    fn encode(&self, out: &mut Vec<u8>) {
        self.seq.encode(out);
        self.views.encode(out);
        self.frontier.encode(out);
        self.fingerprints.encode(out);
        self.snapshot.encode(out);
        self.commit_index.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(CommittedTxn {
            seq: TxnSeq::decode(r)?,
            views: BTreeSet::decode(r)?,
            frontier: UpdateId::decode(r)?,
            fingerprints: BTreeMap::decode(r)?,
            snapshot: Option::decode(r)?,
            commit_index: u64::decode(r)?,
        })
    }
}

impl Codec for WarehouseSnapshot {
    fn encode(&self, out: &mut Vec<u8>) {
        self.views.encode(out);
        self.history.encode(out);
        self.record_snapshots.encode(out);
        self.commits.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(WarehouseSnapshot {
            views: Vec::decode(r)?,
            history: Vec::decode(r)?,
            record_snapshots: bool::decode(r)?,
            commits: u64::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Codec + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = to_bytes(&v);
        let back: T = from_bytes(&bytes).expect("decode");
        assert_eq!(v, back);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u8);
        roundtrip(u32::MAX);
        roundtrip(u64::MAX);
        roundtrip(-42i64);
        roundtrip(usize::MAX);
        roundtrip(true);
        roundtrip(1.5f64);
        roundtrip("héllo".to_owned());
        roundtrip(Some(UpdateId(7)));
        roundtrip(Option::<u64>::None);
        roundtrip(vec![TxnSeq(1), TxnSeq(2)]);
        roundtrip(BTreeSet::from([ViewId(1), ViewId(9)]));
    }

    #[test]
    fn values_and_tuples_roundtrip() {
        roundtrip(Value::Null);
        roundtrip(Value::Float(f64::NAN.to_bits() as f64));
        roundtrip(Tuple::new(vec![
            Value::Int(1),
            Value::str("x"),
            Value::Bool(false),
        ]));
        // A relation with a history (an over-delete, a tuple removed
        // again): decoding rebuilds it by inserts alone, and the
        // maintained fingerprint must come out the same.
        let ints = |a: i64, b: i64| Tuple::new(vec![Value::Int(a), Value::Int(b)]);
        let mut rel = Relation::new(Schema::ints(&["a", "b"]));
        rel.insert_n(ints(1, 2), 3).unwrap();
        rel.insert_n(ints(5, 6), 2).unwrap();
        rel.insert(ints(3, 4)).unwrap();
        assert_eq!(rel.delete_n(&ints(5, 6), 9), 2);
        rel.delete(&ints(1, 2));
        let bytes = to_bytes(&rel);
        let back: Relation = from_bytes(&bytes).unwrap();
        assert_eq!(rel, back);
        assert_eq!(rel.fingerprint(), back.fingerprint());
        assert_ne!(rel.fingerprint(), 0);
    }

    #[test]
    fn delta_roundtrip_preserves_counts() {
        let mut d = Delta::new();
        d.add(Tuple::new(vec![Value::Int(5)]), -2);
        d.add(Tuple::new(vec![Value::Int(6)]), 4);
        let back: Delta = from_bytes(&to_bytes(&d)).unwrap();
        assert_eq!(back.net(&Tuple::new(vec![Value::Int(5)])), -2);
        assert_eq!(back.net(&Tuple::new(vec![Value::Int(6)])), 4);
    }

    #[test]
    fn action_list_and_txn_roundtrip() {
        let al = ActionList::batch(ViewId(2), UpdateId(1), UpdateId(3), {
            let mut d = Delta::new();
            d.add(Tuple::new(vec![Value::Int(1)]), 1);
            d
        });
        roundtrip(al.clone());
        roundtrip(WarehouseTxn {
            seq: TxnSeq(4),
            rows: vec![UpdateId(1), UpdateId(3)],
            actions: vec![al],
            views: BTreeSet::from([ViewId(2)]),
            frontier: UpdateId(3),
        });
    }

    #[test]
    fn enums_roundtrip() {
        roundtrip(CommitPolicy::Batched { max_batch: 7 });
        roundtrip(CommitPolicy::Immediate);
        roundtrip(MergeAlgorithm::Pa);
        roundtrip(Color::Gray);
        roundtrip(Entry {
            color: Color::Red,
            state: UpdateId(9),
        });
    }

    /// Every `WalRecord` variant must survive the codec; the protocol
    /// lint (`wal-variant-roundtrip`) enforces that this list stays in
    /// sync with the enum. `WalRecord` has no `PartialEq`, so equality is
    /// byte-image equality: encode → decode → re-encode must be stable.
    #[test]
    fn wal_record_every_variant_roundtrips() {
        use crate::checkpoint::{CheckpointState, CommitRecord};
        use crate::record::WalRecord;

        fn rt(rec: WalRecord) {
            let bytes = to_bytes(&rec);
            let back: WalRecord = from_bytes(&bytes).expect("decode");
            assert_eq!(rec.kind(), back.kind());
            assert_eq!(bytes, to_bytes(&back), "{} re-encode differs", rec.kind());
        }

        let delta = {
            let mut d = Delta::new();
            d.add(Tuple::new(vec![Value::Int(3)]), 1);
            d
        };
        let al = ActionList::batch(ViewId(1), UpdateId(2), UpdateId(2), delta.clone());
        rt(WalRecord::SourceUpdate(std::sync::Arc::new(SourceUpdate {
            seq: GlobalSeq::INITIAL,
            source: SourceId(0),
            changes: vec![RelationChange {
                relation: "R".into(),
                delta,
            }],
        })));
        rt(WalRecord::RelInstalled {
            group: 0,
            id: UpdateId(2),
            rel: BTreeSet::from([ViewId(1)]),
        });
        rt(WalRecord::ActionInstalled {
            group: 0,
            al: al.clone(),
        });
        rt(WalRecord::Paint {
            group: 0,
            update: UpdateId(2),
            view: ViewId(1),
            color: Color::Red,
            state: UpdateId(2),
        });
        rt(WalRecord::GroupReleased {
            group: 0,
            txn: WarehouseTxn {
                seq: TxnSeq(1),
                rows: vec![UpdateId(2)],
                actions: vec![al],
                views: BTreeSet::from([ViewId(1)]),
                frontier: UpdateId(2),
            },
        });
        rt(WalRecord::TxnCommitted {
            group: 0,
            seq: TxnSeq(1),
        });
        rt(WalRecord::CommitAcked {
            group: 0,
            seq: TxnSeq(1),
        });
        rt(WalRecord::Checkpoint(Box::new(CheckpointState {
            warehouse: mvc_warehouse::Warehouse::new(false).snapshot(),
            merges: Vec::new(),
            commit_log: vec![CommitRecord {
                group: 0,
                seq: TxnSeq(1),
                rows: vec![UpdateId(2)],
                views: BTreeSet::from([ViewId(1)]),
            }],
            route_lists: vec![crate::checkpoint::RoutedUpdate {
                group: 0,
                id: UpdateId(2),
                update: std::sync::Arc::new(SourceUpdate {
                    seq: GlobalSeq::INITIAL,
                    source: SourceId(0),
                    changes: vec![],
                }),
                rel: BTreeSet::from([ViewId(1)]),
            }],
            installed_rel: vec![UpdateId(2)],
            installed_al: vec![(ViewId(1), UpdateId(2))],
            pending: vec![(
                0,
                WarehouseTxn {
                    seq: TxnSeq(2),
                    rows: vec![UpdateId(3)],
                    actions: vec![],
                    views: BTreeSet::from([ViewId(1)]),
                    frontier: UpdateId(3),
                },
            )],
            unacked: vec![(0, TxnSeq(1))],
            last_logged_src: GlobalSeq::INITIAL,
            next_id: vec![UpdateId(3)],
            received: 3,
            dropped: 1,
            merge_anchors: vec![7],
            routing_anchor: 5,
        })));
        rt(WalRecord::VmUpdateDelivered {
            view: ViewId(1),
            id: UpdateId(2),
        });
        rt(WalRecord::VmAnswerDelivered {
            view: ViewId(1),
            token: QueryToken(4),
            answer: QueryAnswer::Delta({
                let mut d = Delta::new();
                d.add(Tuple::new(vec![Value::Int(9)]), -1);
                d
            }),
        });
        rt(WalRecord::VmAnswerDelivered {
            view: ViewId(1),
            token: QueryToken(5),
            answer: QueryAnswer::Rows(Relation::new(Schema::ints(&["a"])), GlobalSeq::INITIAL),
        });
        rt(WalRecord::VmFlushDelivered { view: ViewId(1) });
    }

    #[test]
    fn truncated_input_is_eof_not_panic() {
        let bytes = to_bytes(&"hello".to_owned());
        for cut in 0..bytes.len() {
            let r: Result<String, _> = from_bytes(&bytes[..cut]);
            assert!(r.is_err());
        }
    }

    #[test]
    fn bogus_length_fails_fast() {
        // A u64 length far beyond the buffer must not allocate or panic.
        let mut bytes = Vec::new();
        u64::MAX.encode(&mut bytes);
        let r: Result<Vec<u64>, _> = from_bytes(&bytes);
        assert!(r.is_err());
    }
}
