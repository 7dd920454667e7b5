//! The `diablod` wire protocol.
//!
//! Both directions speak **length-prefixed frames**: a `u32` little-endian
//! payload length followed by that many bytes. Payloads are a one-byte
//! message tag followed by tag-specific fields; [`Value`]s travel in the
//! engine's canonical binary codec ([`diablo_dataflow::encode_value`] —
//! the same encoding spill files use, so doubles round-trip as raw bits
//! and responses are byte-identical to local runs). Strings are
//! `u32`-length-prefixed UTF-8; lists are a `u32` count followed by the
//! elements.
//!
//! The protocol is deliberately version-tagged: every frame in either
//! direction starts with [`MAGIC`] so a stray client speaking something
//! else fails loudly instead of hanging on a bogus length.

use std::io::{Read, Write};

use diablo_dataflow::{decode_value, encode_value};
use diablo_runtime::{RuntimeError, Value};

/// Result alias for protocol operations.
pub type Result<T> = std::result::Result<T, RuntimeError>;

/// Protocol magic, the first byte of every payload (bumped on
/// incompatible changes).
pub const MAGIC: u8 = 0xD1;

/// Frames larger than this are rejected before allocation — a corrupt or
/// hostile length prefix must not OOM the server.
pub const MAX_FRAME: u32 = 256 * 1024 * 1024;

/// A client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe; answered with [`Response::Pong`].
    Ping,
    /// Compile and execute a program against the request's bindings plus
    /// the server's named datasets.
    Run {
        /// DIABLO source text.
        program: String,
        /// Scalar bindings, in binding order.
        scalars: Vec<(String, Value)>,
        /// Inline collection bindings as `(key, value)` rows.
        rows: Vec<(String, Vec<Value>)>,
        /// Bypass the result cache (used by cold-latency benchmarking;
        /// the run's result is still stored for later hits).
        no_cache: bool,
    },
    /// Register rows server-side under a name: subsequent `Run` requests
    /// see the dataset without re-shipping it, and every concurrent
    /// request shares one in-memory copy.
    BindDataset {
        /// Dataset name, matched against programs' `input` declarations.
        name: String,
        /// `(key, value)` rows.
        rows: Vec<Value>,
    },
    /// Server counters: cache hits/misses/evictions, admission gauges.
    Stats,
    /// Ask the server to stop accepting connections and exit.
    Shutdown,
}

/// One program variable in a `Run` response.
#[derive(Debug, Clone, PartialEq)]
pub enum Output {
    /// A scalar binding.
    Scalar(Value),
    /// A collection binding, collected to sorted `(key, value)` rows.
    Rows(Vec<Value>),
}

/// Per-request execution statistics, returned with every successful run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RequestStats {
    /// True when the response came from the plan-hash result cache.
    pub cache_hit: bool,
    /// Canonical plan hash of the compiled program (cache-key component).
    pub plan_hash: u64,
    /// Microseconds spent queued in admission control.
    pub queue_us: u64,
    /// Microseconds spent executing (0 on a cache hit).
    pub exec_us: u64,
}

/// A server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Liveness acknowledgement.
    Pong,
    /// A successful run: program variables (sorted by name, compiler
    /// temporaries hidden) plus per-request stats.
    RunOk {
        /// `(name, output)` per visible program variable.
        outputs: Vec<(String, Output)>,
        /// Per-request statistics.
        stats: RequestStats,
        /// Program lint warnings (compact `warning[D0xx] line:col: …`
        /// one-liners), in emission order. Advisory only — the run
        /// succeeded; clients print them to stderr.
        warnings: Vec<String>,
    },
    /// Any failure: compile error, runtime error (message carries the
    /// `[sN:var]` statement tag), admission timeout.
    Error {
        /// Human-readable message, identical to what `diabloc run` would
        /// print locally for the same failure.
        message: String,
    },
    /// Dataset registered; the value is its content fingerprint.
    BoundOk {
        /// Content fingerprint of the registered rows ([`crate::rows_hash`]).
        fingerprint: u64,
    },
    /// Server counters as `(name, value)` pairs.
    StatsOk {
        /// Counter name/value pairs, in a stable order.
        counters: Vec<(String, u64)>,
    },
    /// Shutdown acknowledged; the server exits after this frame.
    ShuttingDown,
}

// ------------------------------------------------------------ primitives

fn put_u32(out: &mut Vec<u8>, n: u32) {
    out.extend_from_slice(&n.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, n: u64) {
    out.extend_from_slice(&n.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) -> Result<()> {
    let n = u32::try_from(s.len())
        .map_err(|_| RuntimeError::new("serve protocol: string exceeds the u32 wire format"))?;
    put_u32(out, n);
    out.extend_from_slice(s.as_bytes());
    Ok(())
}

fn put_count(out: &mut Vec<u8>, n: usize) -> Result<()> {
    let n = u32::try_from(n)
        .map_err(|_| RuntimeError::new("serve protocol: list exceeds the u32 wire format"))?;
    put_u32(out, n);
    Ok(())
}

fn put_rows(out: &mut Vec<u8>, rows: &[Value]) -> Result<()> {
    put_count(out, rows.len())?;
    for r in rows {
        encode_value(r, out)?;
    }
    Ok(())
}

/// Appends the outputs section of a `RunOk` payload: everything between
/// the message tag and the stats.
fn put_outputs(out: &mut Vec<u8>, outputs: &[(String, Output)]) -> Result<()> {
    put_count(out, outputs.len())?;
    for (name, o) in outputs {
        put_str(out, name)?;
        match o {
            Output::Scalar(v) => {
                out.push(0);
                encode_value(v, out)?;
            }
            Output::Rows(rows) => {
                out.push(1);
                put_rows(out, rows)?;
            }
        }
    }
    Ok(())
}

/// Appends what follows the outputs section in a `RunOk` payload.
fn put_run_tail(out: &mut Vec<u8>, stats: &RequestStats, warnings: &[String]) -> Result<()> {
    out.push(u8::from(stats.cache_hit));
    put_u64(out, stats.plan_hash);
    put_u64(out, stats.queue_us);
    put_u64(out, stats.exec_us);
    put_count(out, warnings.len())?;
    for w in warnings {
        put_str(out, w)?;
    }
    Ok(())
}

/// The outputs section of a `RunOk` payload, encoded on its own: what
/// the result cache stores.
pub(crate) fn encode_outputs(outputs: &[(String, Output)]) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    put_outputs(&mut out, outputs)?;
    Ok(out)
}

/// A whole `RunOk` payload around an outputs section from
/// [`encode_outputs`] — byte for byte what [`Response::encode`] writes for
/// the same outputs, stats and warnings.
pub(crate) fn run_ok_payload(
    section: &[u8],
    stats: &RequestStats,
    warnings: &[String],
) -> Result<Vec<u8>> {
    let tail = 29 + warnings.iter().map(|w| 4 + w.len()).sum::<usize>();
    let mut out = Vec::with_capacity(2 + section.len() + tail);
    out.extend_from_slice(&[MAGIC, 1]);
    out.extend_from_slice(section);
    put_run_tail(&mut out, stats, warnings)?;
    Ok(out)
}

fn corrupt() -> RuntimeError {
    RuntimeError::new("serve protocol: corrupt frame")
}

fn take<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8]> {
    if buf.len() < n {
        return Err(corrupt());
    }
    let (head, rest) = buf.split_at(n);
    *buf = rest;
    Ok(head)
}

fn take_u32(buf: &mut &[u8]) -> Result<u32> {
    Ok(u32::from_le_bytes(take(buf, 4)?.try_into().expect("4")))
}

fn take_u64(buf: &mut &[u8]) -> Result<u64> {
    Ok(u64::from_le_bytes(take(buf, 8)?.try_into().expect("8")))
}

fn take_str_ref<'a>(buf: &mut &'a [u8]) -> Result<&'a str> {
    let n = take_u32(buf)? as usize;
    std::str::from_utf8(take(buf, n)?).map_err(|_| corrupt())
}

fn take_str(buf: &mut &[u8]) -> Result<String> {
    take_str_ref(buf).map(str::to_string)
}

/// One value through the engine's codec; its failures are this
/// protocol's `corrupt frame`.
fn take_value(buf: &mut &[u8]) -> Result<Value> {
    decode_value(buf).map_err(|_| corrupt())
}

fn take_rows(buf: &mut &[u8]) -> Result<Vec<Value>> {
    let n = take_u32(buf)? as usize;
    let mut rows = Vec::with_capacity(n.min(buf.len()));
    for _ in 0..n {
        rows.push(take_value(buf)?);
    }
    Ok(rows)
}

/// Steps over one encoded value without building it, with exactly the
/// checks [`decode_value`] makes — tags, lengths, UTF-8, bool bytes — so
/// bytes this accepts decode without error.
fn skip_value(buf: &mut &[u8]) -> Result<()> {
    match take(buf, 1)?[0] {
        0 => {}
        1 => {
            if take(buf, 1)?[0] > 1 {
                return Err(corrupt());
            }
        }
        2 | 3 => {
            take(buf, 8)?;
        }
        4 => {
            take_str_ref(buf)?;
        }
        5 | 7 => {
            for _ in 0..take_u32(buf)? {
                skip_value(buf)?;
            }
        }
        6 => {
            for _ in 0..take_u32(buf)? {
                take_str_ref(buf)?;
                skip_value(buf)?;
            }
        }
        _ => return Err(corrupt()),
    }
    Ok(())
}

/// An inline rows section of a `Run` frame, still encoded: a `u32` row
/// count, then the rows — the bytes `put_rows` writes. Only constructed
/// by the frame parser, after [`skip_value`] checked every row.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RowsSection<'a>(&'a [u8]);

impl<'a> RowsSection<'a> {
    fn take(buf: &mut &'a [u8]) -> Result<RowsSection<'a>> {
        let start = *buf;
        for _ in 0..take_u32(buf)? {
            skip_value(buf)?;
        }
        Ok(RowsSection(&start[..start.len() - buf.len()]))
    }

    /// The content fingerprint: equal to [`crate::rows_hash`] of the
    /// decoded rows, computed from the bytes without decoding them.
    pub(crate) fn fingerprint(self) -> u64 {
        crate::planhash::bytes_hash(self.0)
    }

    /// The rows, decoded.
    pub(crate) fn decode(self) -> Result<Vec<Value>> {
        take_rows(&mut &self.0[..])
    }
}

/// A `Run` request as the server reads it: text and names borrowed from
/// the frame, scalars decoded, inline rows left encoded — a cache hit
/// never builds them.
#[derive(Debug)]
pub(crate) struct RunFrame<'a> {
    pub(crate) program: &'a str,
    pub(crate) scalars: Vec<(String, Value)>,
    pub(crate) rows: Vec<(&'a str, RowsSection<'a>)>,
    pub(crate) no_cache: bool,
}

/// A request payload, parsed: a `Run` as a [`RunFrame`], any other
/// request decoded whole.
#[derive(Debug)]
pub(crate) enum Parsed<'a> {
    Run(RunFrame<'a>),
    Other(Request),
}

/// The request parser — [`Request::decode`] is this plus decoding a
/// `Run`'s rows sections, so the server and the decoder accept and reject
/// exactly the same frames with the same messages.
pub(crate) fn parse_request(mut buf: &[u8]) -> Result<Parsed<'_>> {
    let buf = &mut buf;
    if take(buf, 1)?[0] != MAGIC {
        return Err(RuntimeError::new(
            "serve protocol: bad magic (client/server version mismatch?)",
        ));
    }
    Ok(Parsed::Other(match take(buf, 1)?[0] {
        0 => Request::Ping,
        1 => {
            let program = take_str_ref(buf)?;
            let n = take_u32(buf)? as usize;
            let mut scalars = Vec::with_capacity(n.min(buf.len()));
            for _ in 0..n {
                let name = take_str(buf)?;
                scalars.push((name, take_value(buf)?));
            }
            let n = take_u32(buf)? as usize;
            let mut rows = Vec::with_capacity(n.min(buf.len()));
            for _ in 0..n {
                let name = take_str_ref(buf)?;
                rows.push((name, RowsSection::take(buf)?));
            }
            let no_cache = take(buf, 1)?[0] != 0;
            return Ok(Parsed::Run(RunFrame {
                program,
                scalars,
                rows,
                no_cache,
            }));
        }
        2 => Request::BindDataset {
            name: take_str(buf)?,
            rows: take_rows(buf)?,
        },
        3 => Request::Stats,
        4 => Request::Shutdown,
        _ => return Err(corrupt()),
    }))
}

// -------------------------------------------------------------- encoding

impl Request {
    /// Encodes the request payload (without the frame length).
    pub fn encode(&self) -> Result<Vec<u8>> {
        let mut out = vec![MAGIC];
        match self {
            Request::Ping => out.push(0),
            Request::Run {
                program,
                scalars,
                rows,
                no_cache,
            } => {
                out.push(1);
                put_str(&mut out, program)?;
                put_count(&mut out, scalars.len())?;
                for (n, v) in scalars {
                    put_str(&mut out, n)?;
                    encode_value(v, &mut out)?;
                }
                put_count(&mut out, rows.len())?;
                for (n, r) in rows {
                    put_str(&mut out, n)?;
                    put_rows(&mut out, r)?;
                }
                out.push(u8::from(*no_cache));
            }
            Request::BindDataset { name, rows } => {
                out.push(2);
                put_str(&mut out, name)?;
                put_rows(&mut out, rows)?;
            }
            Request::Stats => out.push(3),
            Request::Shutdown => out.push(4),
        }
        Ok(out)
    }

    /// Decodes a request payload.
    pub fn decode(buf: &[u8]) -> Result<Request> {
        match parse_request(buf)? {
            Parsed::Other(request) => Ok(request),
            Parsed::Run(run) => Ok(Request::Run {
                program: run.program.to_string(),
                rows: run
                    .rows
                    .iter()
                    .map(|(name, section)| Ok((name.to_string(), section.decode()?)))
                    .collect::<Result<_>>()?,
                scalars: run.scalars,
                no_cache: run.no_cache,
            }),
        }
    }
}

impl Response {
    /// Encodes the response payload (without the frame length).
    pub fn encode(&self) -> Result<Vec<u8>> {
        let mut out = vec![MAGIC];
        match self {
            Response::Pong => out.push(0),
            Response::RunOk {
                outputs,
                stats,
                warnings,
            } => {
                out.push(1);
                put_outputs(&mut out, outputs)?;
                put_run_tail(&mut out, stats, warnings)?;
            }
            Response::Error { message } => {
                out.push(2);
                put_str(&mut out, message)?;
            }
            Response::BoundOk { fingerprint } => {
                out.push(3);
                put_u64(&mut out, *fingerprint);
            }
            Response::StatsOk { counters } => {
                out.push(4);
                put_count(&mut out, counters.len())?;
                for (n, v) in counters {
                    put_str(&mut out, n)?;
                    put_u64(&mut out, *v);
                }
            }
            Response::ShuttingDown => out.push(5),
        }
        Ok(out)
    }

    /// Decodes a response payload.
    pub fn decode(mut buf: &[u8]) -> Result<Response> {
        let buf = &mut buf;
        if *take(buf, 1)?.first().expect("1") != MAGIC {
            return Err(RuntimeError::new(
                "serve protocol: bad magic (client/server version mismatch?)",
            ));
        }
        let tag = *take(buf, 1)?.first().expect("1");
        Ok(match tag {
            0 => Response::Pong,
            1 => {
                let n = take_u32(buf)? as usize;
                let mut outputs = Vec::with_capacity(n.min(buf.len()));
                for _ in 0..n {
                    let name = take_str(buf)?;
                    let kind = take(buf, 1)?[0];
                    let o = match kind {
                        0 => Output::Scalar(take_value(buf)?),
                        1 => Output::Rows(take_rows(buf)?),
                        _ => return Err(corrupt()),
                    };
                    outputs.push((name, o));
                }
                let cache_hit = take(buf, 1)?[0] != 0;
                let stats = RequestStats {
                    cache_hit,
                    plan_hash: take_u64(buf)?,
                    queue_us: take_u64(buf)?,
                    exec_us: take_u64(buf)?,
                };
                let n = take_u32(buf)? as usize;
                let mut warnings = Vec::with_capacity(n.min(buf.len()));
                for _ in 0..n {
                    warnings.push(take_str(buf)?);
                }
                Response::RunOk {
                    outputs,
                    stats,
                    warnings,
                }
            }
            2 => Response::Error {
                message: take_str(buf)?,
            },
            3 => Response::BoundOk {
                fingerprint: take_u64(buf)?,
            },
            4 => {
                let n = take_u32(buf)? as usize;
                let mut counters = Vec::with_capacity(n.min(buf.len()));
                for _ in 0..n {
                    let name = take_str(buf)?;
                    counters.push((name, take_u64(buf)?));
                }
                Response::StatsOk { counters }
            }
            5 => Response::ShuttingDown,
            _ => return Err(corrupt()),
        })
    }
}

// --------------------------------------------------------------- framing

/// Writes one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    let n = u32::try_from(payload.len()).map_err(|_| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "frame exceeds u32 length")
    })?;
    w.write_all(&n.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one length-prefixed frame. Returns `Ok(None)` on clean EOF
/// (the peer closed between frames).
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "eof inside frame length",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let n = u32::from_le_bytes(len);
    if n > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame length {n} exceeds the {MAX_FRAME}-byte cap"),
        ));
    }
    let mut payload = vec![0u8; n as usize];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(req: Request) {
        let bytes = req.encode().unwrap();
        assert_eq!(Request::decode(&bytes).unwrap(), req);
    }

    fn roundtrip_resp(resp: Response) {
        let bytes = resp.encode().unwrap();
        assert_eq!(Response::decode(&bytes).unwrap(), resp);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_req(Request::Ping);
        roundtrip_req(Request::Stats);
        roundtrip_req(Request::Shutdown);
        roundtrip_req(Request::Run {
            program: "var x: long = 1;".into(),
            scalars: vec![("n".into(), Value::Long(7))],
            rows: vec![(
                "V".into(),
                vec![Value::pair(Value::Long(0), Value::Double(0.5))],
            )],
            no_cache: true,
        });
        roundtrip_req(Request::BindDataset {
            name: "points".into(),
            rows: vec![Value::pair(
                Value::Long(1),
                Value::tuple(vec![Value::Double(1.0), Value::Double(2.0)]),
            )],
        });
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_resp(Response::Pong);
        roundtrip_resp(Response::ShuttingDown);
        roundtrip_resp(Response::Error {
            message: "[s2:C] boom".into(),
        });
        roundtrip_resp(Response::BoundOk {
            fingerprint: 0xDEAD_BEEF,
        });
        roundtrip_resp(Response::StatsOk {
            counters: vec![("cache_hits".into(), 3), ("cache_misses".into(), 1)],
        });
        roundtrip_resp(Response::RunOk {
            outputs: vec![
                ("sum".into(), Output::Scalar(Value::Double(4950.0))),
                (
                    "C".into(),
                    Output::Rows(vec![Value::pair(Value::str("a"), Value::Long(3))]),
                ),
            ],
            stats: RequestStats {
                cache_hit: true,
                plan_hash: 42,
                queue_us: 10,
                exec_us: 0,
            },
            warnings: vec![
                "warning[D020] 3:14: update of `C` compiles to a group-by shuffle".into(),
            ],
        });
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = Request::Ping.encode().unwrap();
        bytes[0] = 0x00;
        let err = Request::decode(&bytes).unwrap_err();
        assert!(err.message.contains("bad magic"), "{err}");
    }

    #[test]
    fn frames_roundtrip_over_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r).unwrap().is_none(), "clean eof");
    }

    #[test]
    fn oversized_frame_length_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        let err = read_frame(&mut &buf[..]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    mod fingerprints {
        use super::*;
        use crate::rows_hash;
        use proptest::prelude::*;
        use proptest::TestRng;

        /// Values of every shape the codec knows, nested up to a depth,
        /// with the edge cases a byte-level hash could get wrong: empty
        /// and non-ASCII strings, both zeros, NaN, `i64::MIN`.
        struct AnyValue(u32);

        impl Strategy for AnyValue {
            type Value = Value;

            fn generate(&self, rng: &mut TestRng) -> Value {
                let pick = rng.below(if self.0 == 0 { 5 } else { 8 });
                let nested = |rng: &mut TestRng, n: usize| -> Vec<Value> {
                    (0..n).map(|_| AnyValue(self.0 - 1).generate(rng)).collect()
                };
                match pick {
                    0 => Value::Unit,
                    1 => Value::Bool(rng.next_u64() & 1 == 1),
                    2 => Value::Long(
                        [i64::MIN, i64::MAX, 0, -1, rng.next_u64() as i64][rng.below(5)],
                    ),
                    3 => Value::Double(
                        [0.0, -0.0, f64::NAN, f64::INFINITY, rng.unit_f64() * 1e6][rng.below(5)],
                    ),
                    4 => Value::str(["", "a", "héllo", "日本語 ✓", "tab\there"][rng.below(5)]),
                    5 => {
                        let n = rng.below(6);
                        Value::tuple(nested(rng, n))
                    }
                    6 => {
                        let n = rng.below(4);
                        let names = ["", "x", "ñame"];
                        let fields = nested(rng, n)
                            .into_iter()
                            .map(|v| (names[rng.below(3)].to_string(), v))
                            .collect();
                        Value::record(fields)
                    }
                    _ => {
                        let n = rng.below(4);
                        Value::bag(nested(rng, n))
                    }
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn an_inline_section_fingerprints_as_rows_hash(
                rows in prop::collection::vec(AnyValue(3), 0..24),
            ) {
                let mut bytes = Vec::new();
                put_rows(&mut bytes, &rows).unwrap();
                bytes.push(0xAB); // what follows a section is not part of it
                let mut cursor = &bytes[..];
                let section = RowsSection::take(&mut cursor).unwrap();
                prop_assert_eq!(cursor, &[0xAB][..]);
                prop_assert_eq!(section.fingerprint(), rows_hash(&rows));
                prop_assert_eq!(section.decode().unwrap(), rows);
            }
        }

        #[test]
        fn fingerprints_separate_what_differs() {
            let a = vec![Value::Double(0.0)];
            let b = vec![Value::Double(-0.0)];
            assert_ne!(rows_hash(&a), rows_hash(&b), "the bits differ");
            assert_ne!(rows_hash(&[]), rows_hash(&[Value::Unit]));
            assert_ne!(
                rows_hash(&[Value::str("ab"), Value::str("c")]),
                rows_hash(&[Value::str("a"), Value::str("bc")])
            );
        }
    }
}
