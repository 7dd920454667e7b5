//! Record contracts. A record keeps its values and points to a list of
//! field names that records built with the same names share. Nothing a
//! reader can observe may depend on that sharing: order, equality, hash,
//! text, size estimate, codec bytes and cache key. The golden values
//! below were captured while every record still carried its own copy of
//! each name, so they hold those bytes across the layout change.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Barrier};
use std::thread;

use diablo_core::compile;
use diablo_dataflow::{decode_value, encode_value, Context, RowExpr};
use diablo_exec::Session;
use diablo_runtime::value::{FieldNames, Record};
use diablo_runtime::{serialized_size, Value};
use diablo_serve::{fold, plan_hash, rows_hash, value_hash, Client, ServeConfig, Server};
use diablo_workloads as wl;
use proptest::prelude::*;

fn rec(fields: &[(&str, Value)]) -> Value {
    Value::record(
        fields
            .iter()
            .map(|(n, v)| (n.to_string(), v.clone()))
            .collect(),
    )
}

/// A Group By row's record, a pixel, the empty record, a repeated name,
/// non-ASCII and empty names, and records nested in a tuple and a bag.
fn samples() -> Vec<Value> {
    vec![
        rec(&[("K", Value::Long(3)), ("A", Value::Double(2.5))]),
        rec(&[
            ("red", Value::Long(255)),
            ("green", Value::Long(0)),
            ("blue", Value::Long(17)),
        ]),
        rec(&[]),
        rec(&[("x", Value::Long(1)), ("x", Value::Double(-0.0))]),
        rec(&[("ñame", Value::str("日本語 ✓")), ("", Value::Unit)]),
        Value::pair(
            Value::Long(7),
            rec(&[("p", Value::bag(vec![rec(&[("q", Value::Bool(true))])]))]),
        ),
    ]
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Each sample's `Display`, `serialized_size`, codec bytes and value hash,
/// then the rows hash of all of them and the cache key of a Histogram
/// request whose pixels are records.
const GOLDEN: &[&str] = &[
    "<|K = 3, A = 2.5|> | 24 | \
     0602000000010000004b0203000000000000000100000041030000000000000440 | 3a9e72cc0617c57e",
    "<|red = 255, green = 0, blue = 17|> | 44 | \
     06030000000300000072656402ff0000000000000005000000677265656e0200000000000000000400\
     0000626c7565021100000000000000 | beb8a764bbe22b26",
    "<||> | 2 | 0600000000 | 45b98a61dd3f5fb7",
    "<|x = 1, x = -0|> | 24 | \
     060200000001000000780201000000000000000100000078030000000000000080 | 3a1834a3b4228558",
    "<|ñame = \"日本語 ✓\",  = ()|> | 29 | \
     060200000005000000c3b1616d65040d000000e697a5e69cace8aa9e20e29c930000000000 | f743024dcc3afce0",
    "(7, <|p = {<|q = true|>}|>) | 25 | \
     0502000000020700000000000000060100000001000000700701000000060100000001000000710101 | \
     d6a567a3c5adaae6",
    "rows 7a2e58710996280b",
    "histogram request 0b53bcdbb9f404b5",
];

#[test]
fn records_keep_their_text_sizes_bytes_and_hashes() {
    let mut got = Vec::new();
    for v in samples() {
        let mut bytes = Vec::new();
        encode_value(&v, &mut bytes).unwrap();
        got.push(format!(
            "{v} | {} | {} | {:016x}",
            serialized_size(&v),
            hex(&bytes),
            value_hash(&v)
        ));
    }
    got.push(format!("rows {:016x}", rows_hash(&samples())));
    let w = wl::histogram(64, 5);
    let key = fold(
        plan_hash(&compile(w.source).unwrap()),
        rows_hash(&w.collections[0].1),
    );
    got.push(format!("histogram request {key:016x}"));
    assert_eq!(got, GOLDEN);
}

#[test]
fn a_value_is_three_words() {
    assert_eq!(std::mem::size_of::<Value>(), 24);
}

fn hash_of(v: &Value) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

/// Names drawn with repeats from a pool holding the empty name and
/// non-ASCII ones, and values of a few kinds.
#[derive(Clone, Debug)]
struct Fields(Vec<(&'static str, Value)>);

impl Fields {
    /// The record built through [`Value::record`], whose names a recent
    /// record with the same names shares.
    fn shared(&self) -> Value {
        rec(&self.0)
    }

    /// The same record under a names list of its own.
    fn fresh(&self) -> Value {
        let names: FieldNames = self.0.iter().map(|(n, _)| Box::from(*n)).collect();
        let values = self.0.iter().map(|(_, v)| v.clone()).collect();
        Value::Record(Arc::new(Record::new(names, values)))
    }
}

fn fields() -> impl Strategy<Value = Fields> {
    const NAMES: [&str; 5] = ["", "x", "K", "ñame", "日本語"];
    let value = (0usize..4, -3i64..4).prop_map(|(kind, n)| match kind {
        0 => Value::Long(n),
        1 => Value::Double(n as f64 / 2.0),
        2 => Value::str(NAMES[n.unsigned_abs() as usize % NAMES.len()]),
        _ => Value::pair(Value::Long(n), Value::Unit),
    });
    prop::collection::vec((0usize..NAMES.len(), value), 0..4)
        .prop_map(|fs| Fields(fs.into_iter().map(|(i, v)| (NAMES[i], v)).collect()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn shared_and_fresh_names_agree_on_order_equality_and_hash(a in fields(), b in fields()) {
        let (sa, fa, sb, fb) = (a.shared(), a.fresh(), b.shared(), b.fresh());
        prop_assert_eq!(&sa, &fa);
        prop_assert_eq!(hash_of(&sa), hash_of(&fa));
        prop_assert_eq!(sa.to_string(), fa.to_string());
        let order = sa.cmp(&sb);
        prop_assert_eq!(fa.cmp(&fb), order);
        prop_assert_eq!(sa.cmp(&fb), order);
        prop_assert_eq!(fa.cmp(&sb), order);
        prop_assert_eq!(sa == sb, hash_of(&fa) == hash_of(&fb) && fa == fb);
        // Two records built in a row with the same names share them.
        let (Value::Record(x), Value::Record(y)) = (&sa, &a.shared()) else {
            unreachable!()
        };
        prop_assert!(Arc::ptr_eq(x.names(), y.names()));
    }

    #[test]
    fn a_decoded_record_equals_its_source(a in fields()) {
        let src = a.fresh();
        let mut bytes = Vec::new();
        encode_value(&src, &mut bytes).unwrap();
        let back = decode_value(&mut &bytes[..]).unwrap();
        prop_assert_eq!(&back, &src);
        prop_assert_eq!(back.to_string(), src.to_string());
        let mut again = Vec::new();
        encode_value(&back, &mut again).unwrap();
        prop_assert_eq!(again, bytes);
    }
}

#[test]
fn a_tile_reads_records_under_other_names_by_name() {
    // The tile's first record fixes the position read in every record
    // under its names list; a record under another list is searched.
    let rows: Vec<Value> = (0..100)
        .map(|i| {
            let (a, b) = (("a", Value::Long(i)), ("b", Value::Long(-i)));
            if i % 3 == 0 {
                rec(&[b, a])
            } else {
                rec(&[a, b])
            }
        })
        .collect();
    let got = Context::new(1, 1)
        .from_vec(rows)
        .map_expr(RowExpr::field(RowExpr::Input, "a"))
        .unwrap()
        .collect();
    assert_eq!(got, (0..100).map(Value::Long).collect::<Vec<_>>());
}

const OPAQUE: &str = "input V: vector[long];
     var W: vector[<|a: long, b: double|>] = vector();
     for i = 0, 1999 do W[i] := <| a = V[i] * 2, b = V[i] / 2.0 |>;";

#[test]
fn pool_workers_build_records_the_driver_drops() {
    // A record constructor has no column form, so each row's record is
    // built by `comp::eval` on a pool worker, under that worker's names;
    // the driver compares and drops them.
    let compiled = compile(OPAQUE).unwrap();
    let input: Vec<Value> = (0..2000)
        .map(|i| Value::pair(Value::Long(i), Value::Long(i % 13 - 6)))
        .collect();
    let want: Vec<Value> = (0..2000)
        .map(|i| {
            let v = i % 13 - 6;
            Value::pair(
                Value::Long(i),
                rec(&[
                    ("a", Value::Long(v * 2)),
                    ("b", Value::Double(v as f64 / 2.0)),
                ]),
            )
        })
        .collect();
    for round in 0..8 {
        let mut session = Session::new(Context::new(2, 4));
        session.bind_input("V", input.clone());
        if round == 0 {
            let plan = session.explain(&compiled).unwrap();
            assert!(plan.contains("layout: row (opaque"), "{plan}");
        }
        session.run(&compiled).unwrap();
        let got = session.collect("W").unwrap();
        assert_eq!(got, want, "round {round}");
        drop(session);
        drop(got);
    }
}

#[test]
fn diablod_decodes_record_inputs_from_two_clients_at_once() {
    let w = Arc::new(wl::histogram(3000, 17));
    let mut local = Session::new(Context::new(2, 4));
    local.bind_input("P", w.collections[0].1.clone());
    local.run(&compile(w.source).unwrap()).unwrap();
    let want: Arc<Vec<Vec<Value>>> = Arc::new(
        w.outputs
            .iter()
            .map(|name| local.collect(name).unwrap())
            .collect(),
    );
    let server =
        Server::start("127.0.0.1:0", Context::new(2, 4), ServeConfig::default()).expect("server");
    let addr = server.addr().to_string();
    let start = Arc::new(Barrier::new(2));
    let clients: Vec<_> = (0..2)
        .map(|c| {
            let (addr, w, want, start) = (addr.clone(), w.clone(), want.clone(), start.clone());
            thread::spawn(move || {
                let mut client = Client::connect(&addr).expect("connect");
                let rows = vec![("P".to_string(), w.collections[0].1.clone())];
                start.wait();
                for round in 0..4 {
                    let res = client
                        .run(w.source, Vec::new(), rows.clone(), true)
                        .unwrap_or_else(|e| panic!("client {c}, round {round}: {e}"));
                    for (name, want) in w.outputs.iter().zip(want.iter()) {
                        let got = res.outputs.iter().find(|(n, _)| n == name);
                        assert_eq!(
                            got.map(|(_, out)| out),
                            Some(&diablo_serve::Output::Rows(want.clone())),
                            "client {c}, round {round}, `{name}`"
                        );
                    }
                }
            })
        })
        .collect();
    for h in clients {
        h.join().expect("client thread");
    }
    server.stop();
}
