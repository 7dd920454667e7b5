//! Single-operator probes: the spine calls the public `Dataset` operators,
//! the value codec and the §5 tile kernels directly, on the inputs the
//! workload generated, so a change in one operator shows without a program
//! around it.

use diablo_dataflow::{decode_value, encode_value, Context, Dataset};
use diablo_runtime::array::key_value;
use diablo_runtime::{BinOp, RuntimeError, TiledMatrix, Value};

use crate::calib::{self, Bracket};
use crate::sizes::PROBE_REPS;
use crate::stats::median;
use crate::trace::{Span, Tracer};

type Res<T> = Result<T, RuntimeError>;

fn add(a: &Value, b: &Value) -> Res<Value> {
    BinOp::Add.apply(a, b)
}

/// Runs `op` on a fresh dataset of `rows` [`PROBE_REPS`] times, each inside
/// a span named `name`; the dataset is built outside the span.
fn timed(
    t: &mut Tracer,
    name: &'static str,
    mut build: impl FnMut() -> Vec<Dataset>,
    op: impl Fn(&[Dataset]) -> Res<()>,
) -> Res<()> {
    let mut cal = Bracket::open(calib::ENGINE);
    for rep in 0..PROBE_REPS {
        t.begin_rep(rep as u32);
        let inputs = build();
        t.span(name, |_| op(&inputs))?;
        t.end_rep(cal.close());
    }
    Ok(())
}

/// map → filter → map → reduce over `(index, double)` rows: one fused narrow
/// stage and a total aggregation, no exchange.
pub fn narrow_chain(ctx: &Context, doubles: &[Value], t: &mut Tracer) -> Res<()> {
    timed(
        t,
        "dataflow.narrow_chain",
        || vec![ctx.from_vec(doubles.to_vec())],
        |d| {
            let values = d[0].map(|row| Ok(key_value(row)?.1))?;
            let small = values.filter(|v| Ok(v.as_double().is_some_and(|x| x < 100.0)))?;
            let scaled = small.map(|v| BinOp::Mul.apply(v, &Value::Double(0.5)))?;
            std::hint::black_box(scaled.reduce(add)?);
            Ok(())
        },
    )
}

/// `(word, 1)` pairs through `reduce_by_key`: map-side combine, few keys.
pub fn reduce_by_key(ctx: &Context, words: &[Value], t: &mut Tracer) -> Res<()> {
    timed(
        t,
        "dataflow.reduce_by_key",
        || vec![ctx.from_vec(words.to_vec())],
        |d| {
            let pairs = d[0].map(|row| Ok(Value::pair(key_value(row)?.1, Value::Long(1))))?;
            std::hint::black_box(pairs.reduce_by_key(add)?.materialize()?.count());
            Ok(())
        },
    )
}

/// `(K, A)` pairs through `group_by_key`: every row crosses the exchange.
pub fn group_by_key(ctx: &Context, records: &[Value], t: &mut Tracer) -> Res<()> {
    timed(
        t,
        "dataflow.group_by_key",
        || vec![ctx.from_vec(records.to_vec())],
        |d| {
            let pairs = d[0].map(|row| {
                let (_, rec) = key_value(row)?;
                let field = |name| {
                    rec.field(name)
                        .cloned()
                        .ok_or_else(|| RuntimeError::new("group-by record field"))
                };
                Ok(Value::pair(field("K")?, field("A")?))
            })?;
            std::hint::black_box(pairs.group_by_key()?.materialize()?.count());
            Ok(())
        },
    )
}

/// `M.join(N)` and `M.merge(N, +)` over two matrices with the same keys.
pub fn join_and_merge(ctx: &Context, m: &[Value], n: &[Value], t: &mut Tracer) -> Res<()> {
    let build = || vec![ctx.from_vec(m.to_vec()), ctx.from_vec(n.to_vec())];
    timed(t, "dataflow.join", build, |d| {
        std::hint::black_box(d[0].join(&d[1])?.materialize()?.count());
        Ok(())
    })?;
    timed(t, "dataflow.merge", build, |d| {
        std::hint::black_box(d[0].merge(&d[1], Some(add))?.materialize()?.count());
        Ok(())
    })
}

/// `Dataset::broadcast` of `rows`.
pub fn broadcast(ctx: &Context, rows: &[Value], t: &mut Tracer) -> Res<()> {
    timed(
        t,
        "dataflow.broadcast",
        || vec![ctx.from_vec(rows.to_vec())],
        |d| {
            std::hint::black_box(d[0].broadcast()?.len());
            Ok(())
        },
    )
}

/// `TiledMatrix::pack_values` + `multiply` + `unpack_values`: the §5 packed
/// path on the inputs of Matrix Multiplication. It is not on any `run_s`
/// path today; the probe is here so it cannot silently become one.
pub fn tile_matmul(m: &[Value], n: &[Value], t: &mut Tracer) -> Res<()> {
    let mut cal = Bracket::open(calib::FRONT_END);
    for rep in 0..PROBE_REPS {
        t.begin_rep(rep as u32);
        t.span("runtime.tile_matmul", |_| {
            let tm = TiledMatrix::pack_values(8, 8, m)?;
            let tn = TiledMatrix::pack_values(8, 8, n)?;
            std::hint::black_box(tm.multiply(&tn).unpack_values().len());
            Ok::<(), RuntimeError>(())
        })?;
        t.end_rep(cal.close());
    }
    Ok(())
}

/// `encode_value` / `decode_value` over `rows`: the codec of spill runs,
/// dataset-cache files and the wire. Each span carries the encoded `bytes`.
pub fn codec(rows: &[Value], t: &mut Tracer) -> Res<()> {
    let mut cal = Bracket::open(calib::FRONT_END);
    for rep in 0..PROBE_REPS {
        t.begin_rep(rep as u32);
        let mut bytes = Vec::new();
        t.span("dataflow.codec_encode", |t| {
            for r in rows {
                encode_value(r, &mut bytes)?;
            }
            t.attr("bytes", bytes.len() as f64);
            Ok::<(), RuntimeError>(())
        })?;
        t.span("dataflow.codec_decode", |t| {
            let mut rest = bytes.as_slice();
            while !rest.is_empty() {
                std::hint::black_box(decode_value(&mut rest)?);
            }
            t.attr("bytes", bytes.len() as f64);
            Ok::<(), RuntimeError>(())
        })?;
        t.end_rep(cal.close());
    }
    Ok(())
}

/// Median MB/s (bytes per microsecond) over the codec spans called `name`.
pub fn codec_mbps(spans: &[Span], name: &str) -> f64 {
    let rates: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .filter_map(|s| {
            let bytes = s.attrs.iter().find(|(k, _)| *k == "bytes")?.1;
            Some(bytes / s.micros())
        })
        .collect();
    median(&rates)
}
