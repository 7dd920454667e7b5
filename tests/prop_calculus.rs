//! Property tests for the comprehension calculus: normalization and
//! optimization must be meaning-preserving on randomly generated
//! comprehensions, the array merge must satisfy its algebraic laws, and
//! pack/unpack must be mutually inverse.

use proptest::prelude::*;

use diablo_comp::ir::{CExpr, Comprehension, NameGen, Pattern, Qual};
use diablo_comp::{eval, normalize, optimize, Env};
use diablo_runtime::{merge_pairs, AggOp, BinOp, TiledMatrix, Value};

fn bag_of_pairs(entries: &[(i64, i64)]) -> Value {
    Value::bag(
        entries
            .iter()
            .map(|&(k, v)| Value::pair(Value::Long(k), Value::Long(v)))
            .collect(),
    )
}

fn canon(v: &Value) -> Value {
    match v.as_bag() {
        Some(items) => {
            let mut s: Vec<Value> = items.iter().map(canon).collect();
            s.sort();
            Value::bag(s)
        }
        None => v.clone(),
    }
}

/// A random comprehension over datasets `X` and `Y` built from a small
/// grammar: an X traversal, optionally a join with Y, optionally a filter,
/// a let, and optionally a group-by with a sum aggregation.
#[derive(Debug, Clone)]
struct RandComp {
    join: bool,
    filter: Option<i64>,
    offset: i64,
    group: bool,
}

fn rand_comp_strategy() -> impl Strategy<Value = RandComp> {
    (
        any::<bool>(),
        prop::option::of(-50i64..50),
        -10i64..10,
        any::<bool>(),
    )
        .prop_map(|(join, filter, offset, group)| RandComp {
            join,
            filter,
            offset,
            group,
        })
}

fn build(rc: &RandComp) -> CExpr {
    let mut quals = vec![Qual::Gen(
        Pattern::pair(Pattern::var("i"), Pattern::var("x")),
        CExpr::var("X"),
    )];
    let mut value = CExpr::var("x");
    if rc.join {
        quals.push(Qual::Gen(
            Pattern::pair(Pattern::var("j"), Pattern::var("y")),
            CExpr::var("Y"),
        ));
        quals.push(Qual::Pred(CExpr::eq(CExpr::var("j"), CExpr::var("i"))));
        value = CExpr::Bin(BinOp::Add, Box::new(value), Box::new(CExpr::var("y")));
    }
    if let Some(c) = rc.filter {
        quals.push(Qual::Pred(CExpr::Bin(
            BinOp::Lt,
            Box::new(CExpr::var("x")),
            Box::new(CExpr::long(c)),
        )));
    }
    quals.push(Qual::Let(
        Pattern::var("w"),
        CExpr::Bin(
            BinOp::Add,
            Box::new(value),
            Box::new(CExpr::long(rc.offset)),
        ),
    ));
    if rc.group {
        quals.push(Qual::GroupBy(
            Pattern::var("k"),
            CExpr::Bin(
                BinOp::Mod,
                Box::new(CExpr::var("i")),
                Box::new(CExpr::long(3)),
            ),
        ));
        CExpr::Comp(Comprehension::new(
            CExpr::pair(
                CExpr::var("k"),
                CExpr::Agg(AggOp::new(BinOp::Add).unwrap(), Box::new(CExpr::var("w"))),
            ),
            quals,
        ))
    } else {
        CExpr::Comp(Comprehension::new(
            CExpr::pair(CExpr::var("i"), CExpr::var("w")),
            quals,
        ))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn normalization_preserves_meaning(
        rc in rand_comp_strategy(),
        xs in prop::collection::vec((0i64..15, -100i64..100), 0..40),
        ys in prop::collection::vec((0i64..15, -100i64..100), 0..40),
    ) {
        let e = build(&rc);
        let mut env = Env::new();
        env.insert("X".into(), bag_of_pairs(&xs));
        env.insert("Y".into(), bag_of_pairs(&ys));
        let mut ng = NameGen::new();
        let n = normalize(&e, &mut ng);
        prop_assert_eq!(
            canon(&eval(&e, &env).unwrap()),
            canon(&eval(&n, &env).unwrap())
        );
    }

    #[test]
    fn optimization_preserves_meaning(
        rc in rand_comp_strategy(),
        xs in prop::collection::vec((0i64..15, -100i64..100), 0..40),
        ys in prop::collection::vec((0i64..15, -100i64..100), 0..40),
    ) {
        let e = build(&rc);
        let mut env = Env::new();
        env.insert("X".into(), bag_of_pairs(&xs));
        env.insert("Y".into(), bag_of_pairs(&ys));
        let mut ng = NameGen::new();
        let o = optimize(&e, &mut ng);
        prop_assert_eq!(
            canon(&eval(&e, &env).unwrap()),
            canon(&eval(&o, &env).unwrap())
        );
    }

    /// The driver stops at a fixpoint, not at a cap: optimizing an
    /// optimized term fires no rule, so not even a generated name differs.
    #[test]
    fn optimize_is_idempotent(rc in rand_comp_strategy()) {
        let mut ng = NameGen::new();
        let once = optimize(&build(&rc), &mut ng);
        prop_assert_eq!(&optimize(&once, &mut ng), &once);
    }

    #[test]
    fn merge_laws(
        xs in prop::collection::hash_map(0i64..20, -100i64..100, 0..20),
        ys in prop::collection::hash_map(0i64..20, -100i64..100, 0..20),
        zs in prop::collection::hash_map(0i64..20, -100i64..100, 0..20),
    ) {
        let to_rows = |m: &std::collections::HashMap<i64, i64>| -> Vec<Value> {
            let mut ks: Vec<_> = m.keys().copied().collect();
            ks.sort_unstable();
            ks.iter().map(|k| Value::pair(Value::Long(*k), Value::Long(m[k]))).collect()
        };
        let (x, y, z) = (to_rows(&xs), to_rows(&ys), to_rows(&zs));
        let sorted = |mut v: Vec<Value>| { v.sort(); v };

        // Identity: X ⊳ ∅ = X and ∅ ⊳ X = X.
        prop_assert_eq!(sorted(merge_pairs(&x, &[]).unwrap()), sorted(x.clone()));
        prop_assert_eq!(sorted(merge_pairs(&[], &x).unwrap()), sorted(x.clone()));
        // Idempotence: X ⊳ X = X.
        prop_assert_eq!(sorted(merge_pairs(&x, &x).unwrap()), sorted(x.clone()));
        // Associativity: (X ⊳ Y) ⊳ Z = X ⊳ (Y ⊳ Z).
        let left = merge_pairs(&merge_pairs(&x, &y).unwrap(), &z).unwrap();
        let right = merge_pairs(&x, &merge_pairs(&y, &z).unwrap()).unwrap();
        prop_assert_eq!(sorted(left), sorted(right));
        // Right bias: keys of Y take Y's value.
        let m = merge_pairs(&x, &y).unwrap();
        for row in &m {
            let (k, v) = diablo_runtime::array::key_value(row).unwrap();
            let kk = k.as_long().unwrap();
            if let Some(&yv) = ys.get(&kk) {
                prop_assert_eq!(v, Value::Long(yv));
            }
        }
    }

    #[test]
    fn pack_unpack_inverse(
        entries in prop::collection::hash_map((0i64..64, 0i64..64), 1.0f64..100.0, 0..80),
        tr in 1usize..9,
        tc in 1usize..9,
    ) {
        let list: Vec<(i64, i64, f64)> = entries.iter().map(|(&(i, j), &v)| (i, j, v)).collect();
        let m = TiledMatrix::pack(tr, tc, list.clone());
        let mut back = m.unpack();
        back.sort_by_key(|a| (a.0, a.1));
        let mut want = list;
        want.sort_by_key(|a| (a.0, a.1));
        prop_assert_eq!(back, want);
    }

    #[test]
    fn tiled_multiply_matches_naive(
        a in prop::collection::hash_map((0i64..8, 0i64..8), -4i64..4, 0..24),
        b in prop::collection::hash_map((0i64..8, 0i64..8), -4i64..4, 0..24),
        tile in 1usize..5,
    ) {
        let al: Vec<(i64, i64, f64)> = a.iter().map(|(&(i, j), &v)| (i, j, v as f64)).collect();
        let bl: Vec<(i64, i64, f64)> = b.iter().map(|(&(i, j), &v)| (i, j, v as f64)).collect();
        let ta = TiledMatrix::pack(tile, tile, al.clone());
        let tb = TiledMatrix::pack(tile, tile, bl.clone());
        let tc = ta.multiply(&tb);
        for i in 0..8i64 {
            for j in 0..8i64 {
                let mut want = 0.0;
                for k in 0..8i64 {
                    let av = a.get(&(i, k)).copied().unwrap_or(0) as f64;
                    let bv = b.get(&(k, j)).copied().unwrap_or(0) as f64;
                    want += av * bv;
                }
                prop_assert!((tc.get(i, j) - want).abs() < 1e-9, "({}, {})", i, j);
            }
        }
    }
}
