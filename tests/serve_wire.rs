//! `diablod` on the wire: hostile frames, the shared cache entry of
//! inline and server-side rows, and the bytes of a hit.
//!
//! The server reads a `Run` frame without decoding its inline rows — it
//! checks them, hashes their bytes, and decodes them only on a miss. These
//! tests hold that reader to `Request::decode`: the same frames rejected
//! with the same messages, the same content fingerprinted the same, and a
//! hit answered with exactly the bytes `Response::encode` would write.

use std::net::TcpStream;

use diablo_core::compile;
use diablo_dataflow::Context;
use diablo_runtime::Value;
use diablo_serve::proto::{read_frame, write_frame};
use diablo_serve::{
    plan_hash, rows_hash, Client, Request, RequestStats, Response, ServeConfig, Server,
};
use proptest::prelude::*;

/// Counts its input's rows, so rows of any value shape run, and returns
/// them (every visible variable comes back, inputs included).
const COUNT: &str = "
    input X: vector[long];
    var n: long = 0;
    for v in X do n += 1;
";

const SUM: &str = "
    input V: vector[double];
    var sum: double = 0.0;
    for v in V do sum += v;
";

/// One row per value shape the codec knows, with its edge cases.
fn every_shape() -> Vec<Value> {
    let values = vec![
        Value::Unit,
        Value::Bool(true),
        Value::Bool(false),
        Value::Long(i64::MIN),
        Value::Double(-0.0),
        Value::Double(f64::NAN),
        Value::str(""),
        Value::str("héllo ✓"),
        Value::tuple(vec![]),
        Value::pair(Value::Long(1), Value::str("a")),
        Value::tuple(vec![Value::Long(1), Value::Double(2.5), Value::Bool(true)]),
        Value::tuple(vec![Value::Unit; 5]),
        Value::record(vec![
            ("x".into(), Value::Long(7)),
            ("ñ".into(), Value::bag(vec![Value::str("b"), Value::Unit])),
        ]),
        Value::bag(vec![]),
        Value::bag(vec![Value::pair(Value::Long(2), Value::Double(1.0))]),
    ];
    values
        .into_iter()
        .enumerate()
        .map(|(i, v)| Value::pair(Value::Long(i as i64), v))
        .collect()
}

fn count_request() -> Request {
    Request::Run {
        program: COUNT.to_string(),
        scalars: vec![],
        rows: vec![("X".to_string(), every_shape())],
        no_cache: false,
    }
}

fn start() -> Server {
    Server::start("127.0.0.1:0", Context::new(1, 2), ServeConfig::default()).expect("server")
}

/// A raw connection; without `TCP_NODELAY` every two-write frame waits
/// out a delayed ACK.
fn connect(server: &Server) -> TcpStream {
    let conn = TcpStream::connect(server.addr()).expect("connect");
    conn.set_nodelay(true).expect("nodelay");
    conn
}

/// One raw round trip: the response payload exactly as the server wrote it.
fn raw(conn: &mut TcpStream, payload: &[u8]) -> Vec<u8> {
    write_frame(conn, payload).expect("send");
    read_frame(conn).expect("receive").expect("a response")
}

fn run_ok(
    bytes: &[u8],
) -> (
    Vec<(String, diablo_serve::Output)>,
    RequestStats,
    Vec<String>,
) {
    match Response::decode(bytes).expect("decodes") {
        Response::RunOk {
            outputs,
            stats,
            warnings,
        } => (outputs, stats, warnings),
        other => panic!("not a run result: {other:?}"),
    }
}

/// What a run's cache key is made of here: its inline rows and its plan.
type KeyContent = (Vec<(String, Vec<Value>)>, Option<u64>);

/// A server, a raw connection to it, and the key content of every run it
/// has answered successfully.
struct Probe {
    server: Server,
    conn: TcpStream,
    ran: Vec<KeyContent>,
}

fn plan_of(program: &str) -> Option<u64> {
    compile(program).ok().map(|c| plan_hash(&c))
}

impl Probe {
    /// A cold server, or (`warm`) one holding the intact frame's result.
    fn new(warm: bool) -> Probe {
        let server = start();
        let conn = connect(&server);
        let mut probe = Probe {
            server,
            conn,
            ran: Vec::new(),
        };
        if warm {
            let intact = count_request().encode().expect("encodes");
            let (_, cold, _) = run_ok(&raw(&mut probe.conn, &intact));
            let (_, hit, _) = run_ok(&raw(&mut probe.conn, &intact));
            assert!(!cold.cache_hit && hit.cache_hit, "warmed");
            let Request::Run { rows, .. } = count_request() else {
                unreachable!("a run request")
            };
            probe.ran.push((rows, plan_of(COUNT)));
        }
        probe
    }

    /// Checks the server's answer to one damaged `Run` frame. A frame
    /// `Request::decode` rejects gets an `Error` with its message. A frame
    /// it accepts may run, but may hit only on key content — declared
    /// rows and plan — that an earlier run on this server had.
    fn check(&mut self, mutant: &[u8], what: &str) {
        let decoded = Request::decode(mutant);
        if matches!(decoded, Ok(Request::Shutdown)) {
            return;
        }
        let reply = Response::decode(&raw(&mut self.conn, mutant)).expect("the reply decodes");
        match decoded {
            Err(e) => assert_eq!(
                reply,
                Response::Error {
                    message: e.to_string()
                },
                "{what}"
            ),
            Ok(Request::Run { program, rows, .. }) => {
                if let Response::RunOk { stats, .. } = reply {
                    let content = (rows, plan_of(&program));
                    assert!(
                        !stats.cache_hit || self.ran.contains(&content),
                        "{what}: a hit on content never run"
                    );
                    self.ran.push(content);
                }
            }
            Ok(_) => assert!(
                !matches!(reply, Response::RunOk { .. }),
                "{what}: another request answered as a run"
            ),
        }
    }
}

#[test]
fn a_run_frame_cut_at_any_byte_is_an_error_never_a_hit() {
    let intact = count_request().encode().expect("encodes");
    for warm in [false, true] {
        let mut probe = Probe::new(warm);
        for cut in 0..intact.len() {
            probe.check(&intact[..cut], &format!("cut at {cut}"));
        }
        probe.server.stop();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    #[test]
    fn a_run_frame_with_a_flipped_bit_is_refused_like_decode_refuses_it(
        at in 0usize..1 << 20,
        bit in 0u32..8,
    ) {
        // One cold and one warmed server for all cases, built on first use.
        use std::sync::{Mutex, OnceLock};
        static PROBES: OnceLock<Mutex<Vec<Probe>>> = OnceLock::new();
        let probes = PROBES.get_or_init(|| Mutex::new(vec![Probe::new(false), Probe::new(true)]));
        let intact = count_request().encode().expect("encodes");
        let mut mutant = intact.clone();
        let at = at % intact.len();
        mutant[at] ^= 1 << bit;
        for probe in probes.lock().expect("probes").iter_mut() {
            probe.check(&mutant, &format!("bit {bit} of byte {at}"));
        }
    }
}

#[test]
fn inline_rows_and_a_bound_dataset_of_them_share_one_entry() {
    let server = start();
    let mut client = Client::connect(server.addr()).expect("connect");
    let rows = |shift: f64| -> Vec<Value> {
        (0..50)
            .map(|i| Value::pair(Value::Long(i), Value::Double(i as f64 + shift)))
            .collect()
    };

    // Inline first, then bound: the second request hits.
    let cold = client
        .run(SUM, vec![], vec![("V".into(), rows(0.5))], false)
        .expect("inline run");
    assert!(!cold.stats.cache_hit);
    let fingerprint = client.bind_dataset("V", rows(0.5)).expect("bind");
    assert_eq!(fingerprint, rows_hash(&rows(0.5)));
    let warm = client.run(SUM, vec![], vec![], false).expect("bound run");
    assert!(warm.stats.cache_hit, "bound rows find the inline entry");
    assert_eq!(warm.outputs, cold.outputs);

    // Bound first, then inline.
    client.bind_dataset("V", rows(1.5)).expect("rebind");
    let cold = client.run(SUM, vec![], vec![], false).expect("bound run");
    assert!(!cold.stats.cache_hit, "new content, new key");
    let warm = client
        .run(SUM, vec![], vec![("V".into(), rows(1.5))], false)
        .expect("inline run");
    assert!(warm.stats.cache_hit, "inline rows find the bound entry");
    assert_eq!(warm.outputs, cold.outputs);
    server.stop();
}

#[test]
fn a_hit_is_the_bytes_response_encode_writes_for_the_cold_outputs() {
    let server = start();
    let mut conn = connect(&server);
    let request = count_request().encode().expect("encodes");

    let cold_bytes = raw(&mut conn, &request);
    let (outputs, cold, warnings) = run_ok(&cold_bytes);
    assert!(!cold.cache_hit);
    let encode = |stats| {
        Response::RunOk {
            outputs: outputs.clone(),
            stats,
            warnings: warnings.clone(),
        }
        .encode()
        .expect("encodes")
    };
    assert_eq!(cold_bytes, encode(cold), "the miss");

    let hit = RequestStats {
        cache_hit: true,
        queue_us: 0,
        exec_us: 0,
        ..cold
    };
    assert_eq!(raw(&mut conn, &request), encode(hit), "the hit");
    server.stop();
}
