// The left-deep hash join the delta-driven evaluator replaced, kept as the
// reference it is tested and benchmarked against: filter occurrence 0,
// then hash every further occurrence in full on its equi-join columns and
// probe it with the rows so far. Cost O(Σ|R|) per call, whatever the
// size of the substituted delta.
//
// Included (not compiled on its own) by `eval.rs` under `#[cfg(test)]`
// and by the `answer_query` bench; the includer brings `conjuncts`,
// `CmpOp`, `EvalError`, `Expr`, `HashMap`, `Relation`, `SpjCore`, `Tuple`
// and `Value` into scope.

/// Pre-projection rows of `core` over explicit relations, one per source
/// occurrence.
pub fn reference_join<R: std::borrow::Borrow<Relation>>(
    core: &SpjCore,
    rels: &[R],
) -> Result<Relation, EvalError> {
    let rels: Vec<&Relation> = rels.iter().map(std::borrow::Borrow::borrow).collect();
    if rels.len() != core.sources.len() {
        return Err(EvalError::SourceCountMismatch {
            expected: core.sources.len(),
            actual: rels.len(),
        });
    }

    // Classify predicate conjuncts by the first pipeline stage at which all
    // their columns are bound.
    let all_conjuncts = conjuncts(&core.predicate);
    let stage_end: Vec<usize> = core
        .offsets
        .iter()
        .zip(&rels)
        .map(|(off, r)| off + r.schema().arity())
        .collect();
    let stage_of = |e: &Expr| -> usize {
        let max_col = e.columns().into_iter().max().unwrap_or(0);
        stage_end
            .iter()
            .position(|&end| max_col < end)
            .unwrap_or(stage_end.len() - 1)
    };
    let mut stage_conjuncts: Vec<Vec<&Expr>> = vec![Vec::new(); rels.len()];
    for c in all_conjuncts {
        stage_conjuncts[stage_of(c)].push(c);
    }
    let passes_all = |preds: &[&Expr], t: &Tuple| -> Result<bool, EvalError> {
        for p in preds {
            if !p.matches(t)? {
                return Ok(false);
            }
        }
        Ok(true)
    };

    // Stage 0: filter the first relation.
    let mut working: Vec<(Tuple, u64)> = Vec::new();
    for (t, n) in rels[0].iter_counted() {
        if passes_all(&stage_conjuncts[0], t)? {
            working.push((t.clone(), n));
        }
    }

    // Stages 1..: hash join each subsequent relation.
    for k in 1..rels.len() {
        let off = core.offsets[k];
        let arity = rels[k].schema().arity();
        // Split stage conjuncts into equi-join keys and residual filters.
        let mut left_keys: Vec<usize> = Vec::new();
        let mut right_keys: Vec<usize> = Vec::new();
        let mut residual: Vec<&Expr> = Vec::new();
        for c in &stage_conjuncts[k] {
            if let Expr::Cmp(CmpOp::Eq, a, b) = c {
                if let (Expr::Col(i), Expr::Col(j)) = (a.as_ref(), b.as_ref()) {
                    let (lo, hi) = if i < j { (*i, *j) } else { (*j, *i) };
                    if lo < off && (off..off + arity).contains(&hi) {
                        left_keys.push(lo);
                        right_keys.push(hi - off);
                        continue;
                    }
                }
            }
            residual.push(c);
        }

        // Build side: hash the new relation on its join-key columns.
        let mut table: HashMap<Vec<Value>, Vec<(&Tuple, u64)>> = HashMap::new();
        for (t, n) in rels[k].iter_counted() {
            let key: Vec<Value> = right_keys.iter().map(|&c| t.get(c).clone()).collect();
            table.entry(key).or_default().push((t, n));
        }

        // Probe side.
        let mut next: Vec<(Tuple, u64)> = Vec::new();
        for (lt, ln) in &working {
            let key: Vec<Value> = left_keys.iter().map(|&c| lt.get(c).clone()).collect();
            // Null join keys never match (SQL semantics).
            if key.iter().any(Value::is_null) && !left_keys.is_empty() {
                continue;
            }
            if let Some(matches) = table.get(&key) {
                for (rt, rn) in matches {
                    let joined = lt.concat(rt);
                    if passes_all(&residual, &joined)? {
                        next.push((joined, ln * rn));
                    }
                }
            }
        }
        working = next;
    }

    let mut out = Relation::shared(core.join_schema.clone());
    for (t, n) in working {
        out.insert_n(t, n)?;
    }
    Ok(out)
}
