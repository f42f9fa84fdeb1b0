//! View definitions: select-project-join views and aggregate views.
//!
//! A view is defined over named base relations from a [`Catalog`]. The join
//! input schema concatenates the source schemas with attributes qualified
//! as `"{relation}.{attr}"` (a second occurrence of the same relation in a
//! self-join is qualified `"{relation}#2.{attr}"`, and so on). Predicates
//! and projections are written against these qualified names and resolved
//! to positions at build time.

use crate::catalog::Catalog;
use crate::eval::JoinPlan;
use crate::expr::Expr;
use crate::schema::{Attribute, RelationName, Schema, SchemaError};
use crate::tuple::Tuple;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// Name of a warehouse view.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ViewName(Arc<str>);

impl ViewName {
    pub fn new(name: impl AsRef<str>) -> Self {
        ViewName(Arc::from(name.as_ref()))
    }

    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for ViewName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for ViewName {
    fn from(s: &str) -> Self {
        ViewName::new(s)
    }
}

/// Supported aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AggFunc {
    Count,
    Sum,
    Min,
    Max,
    Avg,
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
            AggFunc::Avg => "avg",
        };
        f.write_str(s)
    }
}

/// One aggregate output column: a function over an input expression.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Aggregate {
    pub func: AggFunc,
    /// Input expression over the join schema; ignored for `Count`.
    pub input: Expr,
    /// Output attribute name.
    pub output: String,
}

/// The core of every view: a select-project-join block.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpjCore {
    /// Ordered base relations (repeats allowed for self-joins).
    pub sources: Vec<RelationName>,
    /// Selection/join predicate over the qualified join schema, resolved
    /// to `Col` positions.
    pub predicate: Expr,
    /// Projection expressions (resolved). Empty means identity projection.
    pub projection: Vec<Expr>,
    /// The qualified join (pre-projection) schema.
    pub join_schema: Arc<Schema>,
    /// Output schema after projection.
    pub output_schema: Arc<Schema>,
    /// Start offset of each source's attributes within `join_schema`.
    pub offsets: Vec<usize>,
    /// Schema of each source occurrence: `join_schema` restricted to the
    /// occurrence's positions. Built once per definition, so delta rows,
    /// mirrors and auxiliary copies share it instead of re-projecting.
    occurrence_schemas: Vec<Arc<Schema>>,
    /// One join plan per starting occurrence (see [`crate::eval`]).
    plans: Vec<JoinPlan>,
}

impl SpjCore {
    fn new(
        sources: Vec<RelationName>,
        predicate: Expr,
        projection: Vec<Expr>,
        join_schema: Schema,
        output_schema: Arc<Schema>,
        offsets: Vec<usize>,
    ) -> Self {
        let mut core = SpjCore {
            sources,
            predicate,
            projection,
            join_schema: Arc::new(join_schema),
            output_schema,
            offsets,
            occurrence_schemas: Vec::new(),
            plans: Vec::new(),
        };
        core.occurrence_schemas = (0..core.sources.len())
            .map(|k| {
                let positions: Vec<usize> = core.occurrence_range(k).collect();
                Arc::new(core.join_schema.project(&positions).expect("range valid"))
            })
            .collect();
        core.plans = (0..core.sources.len())
            .map(|k| JoinPlan::new(&core, k))
            .collect();
        core
    }

    /// Positions of occurrence `k`'s attributes within the join schema.
    pub fn occurrence_range(&self, k: usize) -> Range<usize> {
        let hi = self
            .offsets
            .get(k + 1)
            .copied()
            .unwrap_or_else(|| self.join_schema.arity());
        self.offsets[k]..hi
    }

    /// Schema of source occurrence `k` (qualified attribute names).
    pub fn occurrence_schema(&self, k: usize) -> &Arc<Schema> {
        &self.occurrence_schemas[k]
    }

    /// The join plan starting at occurrence `start`.
    pub(crate) fn plan(&self, start: usize) -> Option<&JoinPlan> {
        self.plans.get(start)
    }

    /// Every (relation, column list) a join from some starting occurrence
    /// probes — the indexes a source should keep for this view's delta
    /// queries. May repeat a pair; registration is idempotent.
    pub fn join_indexes(&self) -> impl Iterator<Item = (&RelationName, &[usize])> {
        self.plans
            .iter()
            .flat_map(JoinPlan::probed)
            .map(|(occ, cols)| (&self.sources[occ], cols))
    }
}

/// A complete view definition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ViewDef {
    pub name: ViewName,
    /// Shared: every query a view manager sends carries it, and every
    /// manager and deployment holding the definition reads it.
    pub core: Arc<SpjCore>,
    /// Group-by expressions over the *core output* schema; only meaningful
    /// when `aggregates` is non-empty.
    pub group_by: Vec<Expr>,
    /// Aggregates over the *core output* schema. Empty → plain SPJ view.
    pub aggregates: Vec<Aggregate>,
    /// Final output schema (= core output for SPJ views; group-by +
    /// aggregate columns for aggregate views). Shared by `Arc` so that
    /// instantiating warehouse relations, materializations, and oracle
    /// baselines from one definition never copies the attribute list.
    pub schema: Arc<Schema>,
}

impl ViewDef {
    /// Start building a view definition.
    ///
    /// ```
    /// use mvc_relational::{Catalog, Expr, Schema, ViewDef};
    ///
    /// let cat = Catalog::new()
    ///     .with("R", Schema::ints(&["a", "b"]))
    ///     .with("S", Schema::ints(&["b", "c"]));
    /// let v = ViewDef::builder("V")
    ///     .from("R")
    ///     .from("S")
    ///     .join_on("R.b", "S.b")
    ///     .filter(Expr::gt(Expr::named("R.a"), Expr::value(0)))
    ///     .project(["R.a", "S.c"])
    ///     .build(&cat)
    ///     .unwrap();
    /// assert_eq!(v.schema.arity(), 2);
    /// assert_eq!(v.base_relations().len(), 2);
    /// ```
    pub fn builder(name: impl Into<ViewName>) -> ViewDefBuilder {
        ViewDefBuilder {
            name: name.into(),
            sources: Vec::new(),
            predicates: Vec::new(),
            projection: None,
            group_by: Vec::new(),
            aggregates: Vec::new(),
        }
    }

    /// Shorthand: natural join on explicitly given attribute pairs,
    /// e.g. `join("V1", [("R","S",&[("b","b")])], catalog)` builds
    /// `V1 = R ⋈_{R.b=S.b} S`.
    pub fn is_aggregate(&self) -> bool {
        !self.aggregates.is_empty()
    }

    /// Distinct base relations this view reads.
    pub fn base_relations(&self) -> BTreeSet<RelationName> {
        self.core.sources.iter().cloned().collect()
    }

    /// True when an update to `rel` *may* affect this view. Implements the
    /// selection-based irrelevance test of the paper's ref \[7\]: a changed
    /// tuple is irrelevant when, for every occurrence of `rel` in the join,
    /// some selection conjunct local to that occurrence rejects it.
    pub fn relevant_tuple(&self, rel: &RelationName, tuple: &Tuple) -> bool {
        self.core
            .sources
            .iter()
            .enumerate()
            .filter(|(_, src)| *src == rel)
            .any(|(k, _)| self.core.plans[k].accepts(tuple))
    }
}

/// Split a predicate into its top-level conjuncts.
pub fn conjuncts(e: &Expr) -> Vec<&Expr> {
    let mut out = Vec::new();
    fn walk<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
        match e {
            Expr::And(a, b) => {
                walk(a, out);
                walk(b, out);
            }
            Expr::True => {}
            other => out.push(other),
        }
    }
    walk(e, &mut out);
    out
}

/// Builder for [`ViewDef`].
pub struct ViewDefBuilder {
    name: ViewName,
    sources: Vec<RelationName>,
    predicates: Vec<Expr>,
    projection: Option<Vec<(Expr, Option<String>)>>,
    group_by: Vec<Expr>,
    aggregates: Vec<Aggregate>,
}

impl ViewDefBuilder {
    /// Add a base relation to the join (order matters for the join schema).
    pub fn from(mut self, rel: impl Into<RelationName>) -> Self {
        self.sources.push(rel.into());
        self
    }

    /// Add a predicate conjunct (qualified `Named` columns allowed).
    pub fn filter(mut self, pred: Expr) -> Self {
        self.predicates.push(pred);
        self
    }

    /// Equi-join shorthand: `R.b = S.b` written as `.join_on("R.b", "S.b")`.
    pub fn join_on(self, left: impl Into<String>, right: impl Into<String>) -> Self {
        self.filter(Expr::eq(
            Expr::Named(left.into()),
            Expr::Named(right.into()),
        ))
    }

    /// Project onto named columns.
    pub fn project<I, S>(mut self, cols: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let cols: Vec<(Expr, Option<String>)> = cols
            .into_iter()
            .map(|c| (Expr::Named(c.into()), None))
            .collect();
        self.projection = Some(cols);
        self
    }

    /// Project a computed expression with an output name.
    pub fn project_expr(mut self, expr: Expr, name: impl Into<String>) -> Self {
        self.projection
            .get_or_insert_with(Vec::new)
            .push((expr, Some(name.into())));
        self
    }

    /// Group by an expression (for aggregate views).
    pub fn group_by(mut self, expr: Expr) -> Self {
        self.group_by.push(expr);
        self
    }

    /// Add an aggregate output.
    pub fn aggregate(mut self, func: AggFunc, input: Expr, output: impl Into<String>) -> Self {
        self.aggregates.push(Aggregate {
            func,
            input,
            output: output.into(),
        });
        self
    }

    /// Resolve against the catalog and produce the immutable [`ViewDef`].
    pub fn build(self, catalog: &Catalog) -> Result<ViewDef, SchemaError> {
        if self.sources.is_empty() {
            return Err(SchemaError::UnknownAttribute(
                "view has no source relations".into(),
            ));
        }
        // Build the qualified join schema.
        let mut attrs: Vec<Attribute> = Vec::new();
        let mut offsets = Vec::with_capacity(self.sources.len());
        let mut occurrence_count: std::collections::HashMap<&RelationName, usize> =
            std::collections::HashMap::new();
        for rel in &self.sources {
            let schema = catalog.require(rel)?;
            let occ = occurrence_count.entry(rel).or_insert(0);
            *occ += 1;
            let prefix = if *occ == 1 {
                rel.as_str().to_owned()
            } else {
                format!("{}#{}", rel.as_str(), occ)
            };
            offsets.push(attrs.len());
            for a in schema.attributes() {
                attrs.push(Attribute::new(format!("{prefix}.{}", a.name), a.ty));
            }
        }
        let join_schema = Schema::new(attrs)?;

        // Resolve predicate.
        let predicate = Expr::all(
            self.predicates
                .iter()
                .map(|p| p.resolve(&join_schema))
                .collect::<Result<Vec<_>, _>>()?,
        );

        // Resolve projection and compute core output schema.
        let (projection, output_schema) = match &self.projection {
            None => (Vec::new(), strip_qualifiers(&join_schema)?),
            Some(cols) => {
                let mut exprs = Vec::with_capacity(cols.len());
                let mut out_attrs = Vec::with_capacity(cols.len());
                for (e, name) in cols {
                    let resolved = e.resolve(&join_schema)?;
                    let out_name = match name {
                        Some(n) => n.clone(),
                        None => match e {
                            Expr::Named(n) => unqualify(n),
                            other => format!("{other}"),
                        },
                    };
                    let ty = infer_type(&resolved, &join_schema);
                    out_attrs.push(Attribute::new(out_name, ty));
                    exprs.push(resolved);
                }
                (exprs, Schema::new(dedup_names(out_attrs))?)
            }
        };

        let output_schema = Arc::new(output_schema);
        let core = Arc::new(SpjCore::new(
            self.sources,
            predicate,
            projection,
            join_schema,
            output_schema.clone(),
            offsets,
        ));

        // Aggregates resolve against the core *output* schema.
        if self.aggregates.is_empty() {
            if !self.group_by.is_empty() {
                return Err(SchemaError::UnknownAttribute(
                    "group_by without aggregates".into(),
                ));
            }
            return Ok(ViewDef {
                name: self.name,
                schema: output_schema,
                core,
                group_by: Vec::new(),
                aggregates: Vec::new(),
            });
        }

        let group_by = self
            .group_by
            .iter()
            .map(|g| g.resolve(&output_schema))
            .collect::<Result<Vec<_>, _>>()?;
        let aggregates = self
            .aggregates
            .iter()
            .map(|a| {
                Ok(Aggregate {
                    func: a.func,
                    input: a.input.resolve(&output_schema)?,
                    output: a.output.clone(),
                })
            })
            .collect::<Result<Vec<_>, SchemaError>>()?;

        let mut attrs = Vec::new();
        for (i, g) in group_by.iter().enumerate() {
            let name = match &self.group_by[i] {
                Expr::Named(n) => unqualify(n),
                other => format!("{other}"),
            };
            attrs.push(Attribute::new(name, infer_type(g, &output_schema)));
        }
        for a in &aggregates {
            let ty = match a.func {
                AggFunc::Count => crate::value::ValueType::Int,
                AggFunc::Avg => crate::value::ValueType::Float,
                _ => infer_type(&a.input, &output_schema),
            };
            attrs.push(Attribute::new(a.output.clone(), ty));
        }
        let schema = Schema::new(dedup_names(attrs))?;

        Ok(ViewDef {
            name: self.name,
            core,
            group_by,
            aggregates,
            schema: Arc::new(schema),
        })
    }
}

/// Strip `rel.` qualifiers when unambiguous; keep qualified otherwise.
fn strip_qualifiers(schema: &Schema) -> Result<Schema, SchemaError> {
    let mut counts = std::collections::HashMap::new();
    for a in schema.attributes() {
        *counts.entry(unqualify(&a.name)).or_insert(0usize) += 1;
    }
    let attrs = schema
        .attributes()
        .iter()
        .map(|a| {
            let short = unqualify(&a.name);
            if counts[&short] == 1 {
                Attribute::new(short, a.ty)
            } else {
                a.clone()
            }
        })
        .collect();
    Schema::new(dedup_names(attrs))
}

fn unqualify(name: &str) -> String {
    match name.rsplit_once('.') {
        Some((_, attr)) => attr.to_owned(),
        None => name.to_owned(),
    }
}

fn dedup_names(attrs: Vec<Attribute>) -> Vec<Attribute> {
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::with_capacity(attrs.len());
    for a in attrs {
        let mut candidate = a.name.clone();
        let mut k = 2usize;
        while seen.contains(&candidate) {
            candidate = format!("{}_{k}", a.name);
            k += 1;
        }
        seen.insert(candidate.clone());
        out.push(Attribute::new(candidate, a.ty));
    }
    out
}

/// Best-effort static type inference for output schemas.
fn infer_type(e: &Expr, input: &Schema) -> crate::value::ValueType {
    use crate::value::ValueType;
    match e {
        Expr::Col(i) => input.value_type(*i).unwrap_or(ValueType::Null),
        Expr::Const(v) => v.value_type(),
        Expr::Arith(op, a, b) => {
            let ta = infer_type(a, input);
            let tb = infer_type(b, input);
            if matches!(op, crate::expr::ArithOp::Div) {
                ValueType::Float
            } else if ta == ValueType::Int && tb == ValueType::Int {
                ValueType::Int
            } else {
                ValueType::Float
            }
        }
        Expr::Cmp(..) | Expr::And(..) | Expr::Or(..) | Expr::Not(..) | Expr::IsNull(..) => {
            ValueType::Bool
        }
        Expr::True => ValueType::Bool,
        Expr::Named(_) => ValueType::Null,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    fn catalog() -> Catalog {
        Catalog::new()
            .with("R", Schema::ints(&["a", "b"]))
            .with("S", Schema::ints(&["b", "c"]))
            .with("T", Schema::ints(&["c", "d"]))
    }

    #[test]
    fn join_schema_is_qualified() {
        let v = ViewDef::builder("V1")
            .from("R")
            .from("S")
            .join_on("R.b", "S.b")
            .build(&catalog())
            .unwrap();
        let names: Vec<_> = v
            .core
            .join_schema
            .attributes()
            .iter()
            .map(|a| a.name.as_str())
            .collect();
        assert_eq!(names, vec!["R.a", "R.b", "S.b", "S.c"]);
        assert_eq!(v.core.offsets, vec![0, 2]);
    }

    #[test]
    fn self_join_occurrences_qualified() {
        let v = ViewDef::builder("V")
            .from("R")
            .from("R")
            .join_on("R.b", "R#2.a")
            .build(&catalog())
            .unwrap();
        assert!(v
            .core
            .join_schema
            .attributes()
            .iter()
            .any(|a| a.name == "R#2.a"));
    }

    #[test]
    fn default_output_schema_strips_unambiguous_qualifiers() {
        let v = ViewDef::builder("V1")
            .from("R")
            .from("S")
            .join_on("R.b", "S.b")
            .build(&catalog())
            .unwrap();
        let names: Vec<_> = v
            .schema
            .attributes()
            .iter()
            .map(|a| a.name.as_str())
            .collect();
        // `b` is ambiguous (R.b and S.b both present) → stays qualified
        assert_eq!(names, vec!["a", "R.b", "S.b", "c"]);
    }

    #[test]
    fn projection_resolves_names() {
        let v = ViewDef::builder("V1")
            .from("R")
            .from("S")
            .join_on("R.b", "S.b")
            .project(["R.a", "R.b", "S.c"])
            .build(&catalog())
            .unwrap();
        assert_eq!(v.schema.arity(), 3);
        assert_eq!(v.core.projection.len(), 3);
        assert_eq!(v.core.projection[0], Expr::Col(0));
        assert_eq!(v.core.projection[2], Expr::Col(3));
    }

    #[test]
    fn base_relations_dedup() {
        let v = ViewDef::builder("V")
            .from("R")
            .from("R")
            .build(&catalog())
            .unwrap();
        assert_eq!(v.base_relations().len(), 1);
    }

    #[test]
    fn relevance_unrelated_relation() {
        let v = ViewDef::builder("V1")
            .from("R")
            .from("S")
            .join_on("R.b", "S.b")
            .build(&catalog())
            .unwrap();
        assert!(!v.relevant_tuple(&"T".into(), &tuple![1, 2]));
        assert!(v.relevant_tuple(&"R".into(), &tuple![1, 2]));
    }

    #[test]
    fn relevance_local_selection_rules_out() {
        // V = σ_{R.a > 10}(R ⋈ S)
        let v = ViewDef::builder("V")
            .from("R")
            .from("S")
            .join_on("R.b", "S.b")
            .filter(Expr::gt(Expr::named("R.a"), Expr::value(10)))
            .build(&catalog())
            .unwrap();
        assert!(
            !v.relevant_tuple(&"R".into(), &tuple![5, 2]),
            "a=5 fails a>10"
        );
        assert!(v.relevant_tuple(&"R".into(), &tuple![11, 2]));
        // S tuples unaffected by the R-local conjunct
        assert!(v.relevant_tuple(&"S".into(), &tuple![2, 3]));
    }

    #[test]
    fn relevance_self_join_any_occurrence() {
        // V = R ⋈_{R.b=R#2.a} σ_{R#2.b>5}(R)
        let v = ViewDef::builder("V")
            .from("R")
            .from("R")
            .join_on("R.b", "R#2.a")
            .filter(Expr::gt(Expr::named("R#2.b"), Expr::value(5)))
            .build(&catalog())
            .unwrap();
        // tuple [1,2]: as occurrence 1 → fine; occurrence 2 → fails b>5.
        // Relevant overall because occurrence 1 accepts it.
        assert!(v.relevant_tuple(&"R".into(), &tuple![1, 2]));
    }

    #[test]
    fn aggregate_view_schema() {
        let v = ViewDef::builder("Agg")
            .from("R")
            .group_by(Expr::named("a"))
            .aggregate(AggFunc::Count, Expr::True, "n")
            .aggregate(AggFunc::Sum, Expr::named("b"), "total")
            .build(&catalog())
            .unwrap();
        assert!(v.is_aggregate());
        let names: Vec<_> = v
            .schema
            .attributes()
            .iter()
            .map(|a| a.name.as_str())
            .collect();
        assert_eq!(names, vec!["a", "n", "total"]);
    }

    #[test]
    fn group_by_without_aggregates_rejected() {
        assert!(ViewDef::builder("V")
            .from("R")
            .group_by(Expr::named("a"))
            .build(&catalog())
            .is_err());
    }

    #[test]
    fn empty_sources_rejected() {
        assert!(ViewDef::builder("V").build(&catalog()).is_err());
    }

    #[test]
    fn conjunct_split() {
        let e = Expr::and(
            Expr::eq(Expr::col(0), Expr::col(1)),
            Expr::and(Expr::True, Expr::lt(Expr::col(2), Expr::value(5))),
        );
        assert_eq!(conjuncts(&e).len(), 2);
    }
}
