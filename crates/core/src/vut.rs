//! The ViewUpdateTable (VUT) of §4.1/§5.1.
//!
//! `VUT[i, x]` tracks the status of update `Ui` with respect to view `Vx`:
//!
//! * **white** — waiting for the corresponding action list;
//! * **red** — action list received, held until it can be applied;
//! * **gray** — action list applied to the warehouse;
//! * **black** — the update is irrelevant to the view.
//!
//! The Painting Algorithm additionally stores a `state` per entry: the
//! update id the view will jump to when the covering (batched) action list
//! is applied.
//!
//! Rows are purged as soon as every entry is black or gray, so in a system
//! where no view manager is a bottleneck the table stays small (§4.2).

use crate::action::ActionList;
use crate::error::MergeError;
use crate::ids::{UpdateId, ViewId};
use crate::snapshot::{PaintEvent, VutSnapshot};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// Entry colors (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Color {
    White,
    Red,
    Gray,
    Black,
}

impl Color {
    /// The single-letter rendering used in the paper's tables.
    pub fn letter(self) -> char {
        match self {
            Color::White => 'w',
            Color::Red => 'r',
            Color::Gray => 'g',
            Color::Black => 'b',
        }
    }

    /// Full name, for error messages.
    pub fn name(self) -> &'static str {
        match self {
            Color::White => "white",
            Color::Red => "red",
            Color::Gray => "gray",
            Color::Black => "black",
        }
    }
}

/// One `VUT[i, x]` cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Entry {
    pub color: Color,
    /// PA only: the state this entry's view jumps to (0 = unset).
    pub state: UpdateId,
}

impl Entry {
    fn new(color: Color) -> Entry {
        Entry {
            color,
            state: UpdateId::ZERO,
        }
    }
}

/// The ViewUpdateTable plus the `WT` buffers holding received action lists.
#[derive(Debug, Clone)]
pub struct Vut<P> {
    /// All view-manager columns, ascending. Fixed at construction (the
    /// architecture allows adding views on the fly; that is modelled by
    /// building a new merge process in the runtime layer).
    views: Vec<ViewId>,
    /// Live rows: update id → per-view entry.
    rows: BTreeMap<UpdateId, BTreeMap<ViewId, Entry>>,
    /// `WT_i`: action lists received for row `i` (keyed by `AL.last`).
    /// May be non-empty before the row exists (AL arrived before REL).
    wt: BTreeMap<UpdateId, Vec<ActionList<P>>>,
    /// Per column: rows whose entry is currently red (received,
    /// unapplied). Supports `nextRed`/"previous red" in O(log n).
    red: BTreeMap<ViewId, BTreeSet<UpdateId>>,
    /// Opt-in paint-transition sink for the durability WAL (`None` = off,
    /// zero cost on the non-durable path).
    events: Option<Vec<PaintEvent>>,
}

impl<P> Vut<P> {
    /// Create a VUT with the given view columns.
    pub fn new(views: impl IntoIterator<Item = ViewId>) -> Self {
        let mut views: Vec<ViewId> = views.into_iter().collect();
        views.sort_unstable();
        views.dedup();
        let red = views.iter().map(|&v| (v, BTreeSet::new())).collect();
        Vut {
            views,
            rows: BTreeMap::new(),
            wt: BTreeMap::new(),
            red,
            events: None,
        }
    }

    /// Start buffering paint transitions (durability hook).
    pub fn enable_events(&mut self) {
        if self.events.is_none() {
            self.events = Some(Vec::new());
        }
    }

    /// Drain buffered paint transitions (empty when the sink is off).
    pub fn take_events(&mut self) -> Vec<PaintEvent> {
        self.events.as_mut().map(std::mem::take).unwrap_or_default()
    }

    pub fn views(&self) -> &[ViewId] {
        &self.views
    }

    pub fn has_view(&self, x: ViewId) -> bool {
        self.views.binary_search(&x).is_ok()
    }

    /// Add a view column on the fly (§1.2). Existing rows get black
    /// entries — updates numbered before the view existed are irrelevant
    /// to it by definition.
    pub fn add_view(&mut self, x: ViewId) {
        if self.has_view(x) {
            return;
        }
        let pos = self.views.partition_point(|&v| v < x);
        self.views.insert(pos, x);
        self.red.insert(x, BTreeSet::new());
        for row in self.rows.values_mut() {
            row.insert(x, Entry::new(Color::Black));
        }
    }

    /// Number of live rows.
    pub fn live_rows(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty() && self.wt.is_empty()
    }

    pub fn has_row(&self, i: UpdateId) -> bool {
        self.rows.contains_key(&i)
    }

    /// Allocate row `i`: white for views in `relevant`, black otherwise
    /// (SPA/PA step on receiving `REL_i`).
    pub fn insert_row(&mut self, i: UpdateId, relevant: &BTreeSet<ViewId>) {
        debug_assert!(!self.rows.contains_key(&i), "row {i} inserted twice");
        let entries = self
            .views
            .iter()
            .map(|&v| {
                let color = if relevant.contains(&v) {
                    Color::White
                } else {
                    Color::Black
                };
                (v, Entry::new(color))
            })
            .collect();
        self.rows.insert(i, entries);
    }

    pub fn entry(&self, i: UpdateId, x: ViewId) -> Option<Entry> {
        self.rows.get(&i).and_then(|r| r.get(&x)).copied()
    }

    pub fn color(&self, i: UpdateId, x: ViewId) -> Option<Color> {
        self.entry(i, x).map(|e| e.color)
    }

    /// Set `VUT[i,x]` red, recording the PA jump state (pass `i` itself
    /// for SPA). A missing cell or a non-white entry is a protocol
    /// violation reported as a typed error, so a malformed or duplicate
    /// action list degrades to an error instead of crashing the merge
    /// process thread.
    pub fn set_red(&mut self, i: UpdateId, x: ViewId, state: UpdateId) -> Result<(), MergeError> {
        let e = self.rows.get_mut(&i).and_then(|r| r.get_mut(&x)).ok_or(
            MergeError::VutMissingEntry {
                update: i,
                view: x,
                op: "set_red",
            },
        )?;
        if e.color != Color::White {
            return Err(MergeError::VutColorConflict {
                update: i,
                view: x,
                op: "set_red",
                expected: Color::White.name(),
                found: e.color.name(),
            });
        }
        e.color = Color::Red;
        e.state = state;
        self.red.get_mut(&x).expect("known view").insert(i);
        if let Some(events) = &mut self.events {
            events.push(PaintEvent {
                update: i,
                view: x,
                color: Color::Red,
                state,
            });
        }
        Ok(())
    }

    /// Turn a red entry gray (applied). Same typed-error contract as
    /// [`Vut::set_red`].
    pub fn set_gray(&mut self, i: UpdateId, x: ViewId) -> Result<(), MergeError> {
        let e = self.rows.get_mut(&i).and_then(|r| r.get_mut(&x)).ok_or(
            MergeError::VutMissingEntry {
                update: i,
                view: x,
                op: "set_gray",
            },
        )?;
        if e.color != Color::Red {
            return Err(MergeError::VutColorConflict {
                update: i,
                view: x,
                op: "set_gray",
                expected: Color::Red.name(),
                found: e.color.name(),
            });
        }
        e.color = Color::Gray;
        let state = e.state;
        self.red.get_mut(&x).expect("known view").remove(&i);
        if let Some(events) = &mut self.events {
            events.push(PaintEvent {
                update: i,
                view: x,
                color: Color::Gray,
                state,
            });
        }
        Ok(())
    }

    /// Store a received action list in `WT_{al.last}`.
    pub fn store_action(&mut self, al: ActionList<P>) {
        self.wt.entry(al.last).or_default().push(al);
    }

    /// Remove and return `WT_i`, ordered by view id.
    pub fn take_wt(&mut self, i: UpdateId) -> Vec<ActionList<P>> {
        let mut als = self.wt.remove(&i).unwrap_or_default();
        als.sort_by_key(|al| al.view);
        als
    }

    /// Peek at `WT_i`.
    pub fn wt(&self, i: UpdateId) -> &[ActionList<P>] {
        self.wt.get(&i).map(Vec::as_slice).unwrap_or(&[])
    }

    /// `nextRed(i, x)`: the next row below `VUT[i,x]` with a red entry in
    /// column `x` (the paper returns 0 when none; we return `None`).
    pub fn next_red(&self, i: UpdateId, x: ViewId) -> Option<UpdateId> {
        self.red
            .get(&x)?
            .range((std::ops::Bound::Excluded(i), std::ops::Bound::Unbounded))
            .next()
            .copied()
    }

    /// Red rows strictly before `i` in column `x` (ascending).
    pub fn reds_before(&self, i: UpdateId, x: ViewId) -> Vec<UpdateId> {
        self.red
            .get(&x)
            .map(|s| s.range(..i).copied().collect())
            .unwrap_or_default()
    }

    /// Does row `i` contain any white entry? (`ProcessRow` line 1.)
    pub fn row_has_white(&self, i: UpdateId) -> bool {
        self.rows
            .get(&i)
            .map(|r| r.values().any(|e| e.color == Color::White))
            .unwrap_or(false)
    }

    /// Views whose entry in row `i` is red.
    pub fn reds_in_row(&self, i: UpdateId) -> Vec<ViewId> {
        self.rows
            .get(&i)
            .map(|r| {
                r.iter()
                    .filter(|(_, e)| e.color == Color::Red)
                    .map(|(&v, _)| v)
                    .collect()
            })
            .unwrap_or_default()
    }

    /// PA: entries in row `i` whose jump state exceeds `i`
    /// (`ProcessRow` line 5). Returns the distinct target states.
    pub fn jump_targets(&self, i: UpdateId) -> Vec<UpdateId> {
        let mut out: Vec<UpdateId> = self
            .rows
            .get(&i)
            .map(|r| {
                r.values()
                    .filter(|e| e.color == Color::Red && e.state > i)
                    .map(|e| e.state)
                    .collect()
            })
            .unwrap_or_default();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// White entries in column `x` at rows `<= j` (PA `ProcessAction`).
    pub fn whites_up_to(&self, j: UpdateId, x: ViewId) -> Vec<UpdateId> {
        self.rows
            .range(..=j)
            .filter(|(_, r)| r.get(&x).map(|e| e.color == Color::White).unwrap_or(false))
            .map(|(&i, _)| i)
            .collect()
    }

    /// Remove row `i` (must contain no white or red entries).
    pub fn purge_row(&mut self, i: UpdateId) {
        if let Some(row) = self.rows.remove(&i) {
            debug_assert!(
                row.values()
                    .all(|e| matches!(e.color, Color::Gray | Color::Black)),
                "purging row {i} with unapplied entries"
            );
        }
        self.wt.remove(&i);
    }

    /// Purge every row whose entries are all gray or black (PA line 10).
    pub fn purge_applied(&mut self) -> Vec<UpdateId> {
        let purgeable: Vec<UpdateId> = self
            .rows
            .iter()
            .filter(|(_, r)| {
                r.values()
                    .all(|e| matches!(e.color, Color::Gray | Color::Black))
            })
            .map(|(&i, _)| i)
            .collect();
        for &i in &purgeable {
            self.purge_row(i);
        }
        purgeable
    }

    /// Capture the table for a durability checkpoint. The red index is
    /// derivable from `rows` and is rebuilt by [`Vut::from_snapshot`].
    pub fn snapshot(&self) -> VutSnapshot<P>
    where
        P: Clone,
    {
        VutSnapshot {
            views: self.views.clone(),
            rows: self.rows.clone(),
            wt: self.wt.clone(),
        }
    }

    /// Rebuild a table from a checkpoint snapshot (event sink off).
    pub fn from_snapshot(s: VutSnapshot<P>) -> Self {
        let mut red: BTreeMap<ViewId, BTreeSet<UpdateId>> =
            s.views.iter().map(|&v| (v, BTreeSet::new())).collect();
        for (&i, row) in &s.rows {
            for (&v, e) in row {
                if e.color == Color::Red {
                    red.entry(v).or_default().insert(i);
                }
            }
        }
        Vut {
            views: s.views,
            rows: s.rows,
            wt: s.wt,
            red,
            events: None,
        }
    }

    /// Render the table in the paper's style. With `with_state`, entries
    /// print as `(w,0)` (PA examples); otherwise as single letters (SPA).
    pub fn render(&self, with_state: bool) -> String {
        let mut out = String::new();
        out.push_str("      ");
        for v in &self.views {
            let _ = write!(out, "{:>8}", format!("V{}", v.0));
        }
        out.push_str("  | WT\n");
        for (i, row) in &self.rows {
            let _ = write!(out, "{:<6}", format!("U{}", i.0));
            for v in &self.views {
                let e = row[v];
                let cell = if with_state {
                    format!("({},{})", e.color.letter(), e.state.0)
                } else {
                    e.color.letter().to_string()
                };
                let _ = write!(out, "{cell:>8}");
            }
            let names: Vec<String> = self.wt(*i).iter().map(|al| al.to_string()).collect();
            let _ = writeln!(out, "  | {{{}}}", names.join(", "));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn views(n: u32) -> Vec<ViewId> {
        (1..=n).map(ViewId).collect()
    }

    fn set(ids: &[u32]) -> BTreeSet<ViewId> {
        ids.iter().map(|&v| ViewId(v)).collect()
    }

    #[test]
    fn insert_row_colors_by_relevance() {
        // Example 2: U1 on S → V1, V2 white, V3 black
        let mut vut: Vut<()> = Vut::new(views(3));
        vut.insert_row(UpdateId(1), &set(&[1, 2]));
        assert_eq!(vut.color(UpdateId(1), ViewId(1)), Some(Color::White));
        assert_eq!(vut.color(UpdateId(1), ViewId(2)), Some(Color::White));
        assert_eq!(vut.color(UpdateId(1), ViewId(3)), Some(Color::Black));
    }

    #[test]
    fn red_tracking_and_next_red() {
        let mut vut: Vut<()> = Vut::new(views(2));
        for i in 1..=4 {
            vut.insert_row(UpdateId(i), &set(&[1]));
        }
        vut.set_red(UpdateId(2), ViewId(1), UpdateId(2)).unwrap();
        vut.set_red(UpdateId(4), ViewId(1), UpdateId(4)).unwrap();
        assert_eq!(vut.next_red(UpdateId(1), ViewId(1)), Some(UpdateId(2)));
        assert_eq!(vut.next_red(UpdateId(2), ViewId(1)), Some(UpdateId(4)));
        assert_eq!(vut.next_red(UpdateId(4), ViewId(1)), None);
        assert_eq!(vut.reds_before(UpdateId(4), ViewId(1)), vec![UpdateId(2)]);
        vut.set_gray(UpdateId(2), ViewId(1)).unwrap();
        assert_eq!(vut.next_red(UpdateId(1), ViewId(1)), Some(UpdateId(4)));
    }

    #[test]
    fn wt_storage_ordering() {
        let mut vut: Vut<&'static str> = Vut::new(views(3));
        vut.store_action(ActionList::single(ViewId(2), UpdateId(1), "b"));
        vut.store_action(ActionList::single(ViewId(1), UpdateId(1), "a"));
        let wt = vut.take_wt(UpdateId(1));
        assert_eq!(wt.len(), 2);
        assert_eq!(wt[0].view, ViewId(1), "sorted by view id");
        assert!(vut.wt(UpdateId(1)).is_empty());
    }

    #[test]
    fn row_white_and_reds() {
        let mut vut: Vut<()> = Vut::new(views(3));
        vut.insert_row(UpdateId(1), &set(&[1, 2]));
        assert!(vut.row_has_white(UpdateId(1)));
        vut.set_red(UpdateId(1), ViewId(1), UpdateId(1)).unwrap();
        assert!(vut.row_has_white(UpdateId(1)), "V2 still white");
        vut.set_red(UpdateId(1), ViewId(2), UpdateId(1)).unwrap();
        assert!(!vut.row_has_white(UpdateId(1)));
        assert_eq!(vut.reds_in_row(UpdateId(1)), vec![ViewId(1), ViewId(2)]);
    }

    #[test]
    fn purge_applied_rows_only() {
        let mut vut: Vut<()> = Vut::new(views(2));
        vut.insert_row(UpdateId(1), &set(&[1]));
        vut.insert_row(UpdateId(2), &set(&[2]));
        vut.set_red(UpdateId(1), ViewId(1), UpdateId(1)).unwrap();
        vut.set_gray(UpdateId(1), ViewId(1)).unwrap();
        let purged = vut.purge_applied();
        assert_eq!(purged, vec![UpdateId(1)]);
        assert!(!vut.has_row(UpdateId(1)));
        assert!(vut.has_row(UpdateId(2)), "white row kept");
    }

    #[test]
    fn whites_up_to_column() {
        let mut vut: Vut<()> = Vut::new(views(1));
        for i in 1..=3 {
            vut.insert_row(UpdateId(i), &set(&[1]));
        }
        vut.set_red(UpdateId(2), ViewId(1), UpdateId(2)).unwrap();
        assert_eq!(
            vut.whites_up_to(UpdateId(3), ViewId(1)),
            vec![UpdateId(1), UpdateId(3)]
        );
        assert_eq!(vut.whites_up_to(UpdateId(1), ViewId(1)), vec![UpdateId(1)]);
    }

    #[test]
    fn jump_targets_pa() {
        let mut vut: Vut<()> = Vut::new(views(2));
        vut.insert_row(UpdateId(1), &set(&[1, 2]));
        vut.set_red(UpdateId(1), ViewId(1), UpdateId(3)).unwrap();
        vut.set_red(UpdateId(1), ViewId(2), UpdateId(1)).unwrap();
        assert_eq!(vut.jump_targets(UpdateId(1)), vec![UpdateId(3)]);
    }

    #[test]
    fn render_spa_style() {
        let mut vut: Vut<()> = Vut::new(views(3));
        vut.insert_row(UpdateId(1), &set(&[1, 2]));
        vut.store_action(ActionList::single(ViewId(2), UpdateId(1), ()));
        vut.set_red(UpdateId(1), ViewId(2), UpdateId(1)).unwrap();
        let s = vut.render(false);
        assert!(s.contains("U1"), "{s}");
        assert!(s.contains('w') && s.contains('r') && s.contains('b'), "{s}");
        assert!(s.contains("AL2_1"), "{s}");
    }

    #[test]
    fn render_pa_style_has_states() {
        let mut vut: Vut<()> = Vut::new(views(1));
        vut.insert_row(UpdateId(1), &set(&[1]));
        vut.set_red(UpdateId(1), ViewId(1), UpdateId(3)).unwrap();
        let s = vut.render(true);
        assert!(s.contains("(r,3)"), "{s}");
    }

    #[test]
    fn set_red_missing_row_is_typed_error() {
        let mut vut: Vut<()> = Vut::new(views(1));
        let err = vut
            .set_red(UpdateId(1), ViewId(1), UpdateId(1))
            .unwrap_err();
        assert_eq!(
            err,
            MergeError::VutMissingEntry {
                update: UpdateId(1),
                view: ViewId(1),
                op: "set_red",
            }
        );
        assert_eq!(err.to_string(), "set_red on missing entry [U1,V1]");
    }

    #[test]
    fn set_red_twice_is_color_conflict() {
        let mut vut: Vut<()> = Vut::new(views(1));
        vut.insert_row(UpdateId(1), &set(&[1]));
        vut.set_red(UpdateId(1), ViewId(1), UpdateId(1)).unwrap();
        let err = vut
            .set_red(UpdateId(1), ViewId(1), UpdateId(1))
            .unwrap_err();
        assert_eq!(
            err,
            MergeError::VutColorConflict {
                update: UpdateId(1),
                view: ViewId(1),
                op: "set_red",
                expected: "white",
                found: "red",
            }
        );
        // A gray (already applied) entry cannot be re-applied either.
        vut.set_gray(UpdateId(1), ViewId(1)).unwrap();
        let err = vut.set_gray(UpdateId(1), ViewId(1)).unwrap_err();
        assert!(matches!(
            err,
            MergeError::VutColorConflict {
                op: "set_gray",
                found: "gray",
                ..
            }
        ));
    }
}
