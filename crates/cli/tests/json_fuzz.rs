//! Seeded mutation fuzzing of the JSON codec's two untrusted-input
//! readers: `warpstl_obs::json::parse` and `CampaignSpec::parse`.
//!
//! The corpus is the example campaign spec, serve request bodies, one
//! document of grammar corners, and one document from every JSON writer
//! in the workspace (compaction and STL reports, campaign report, analyze
//! and lint reports, Chrome trace, serve's envelopes, error body and
//! `/metrics`, `xlint --json`, and the committed `BENCH_fsim.json`).
//! Each mutant applies one to four of: a byte flip, a truncation, a
//! splice with another corpus entry, or the duplication of a short run of
//! bytes. Checked on every mutant:
//!
//! - neither reader panics;
//! - every parse error names a byte offset within the input;
//! - every document that parses, written back through the codec's
//!   `Writer`, parses to the same value.
//!
//! The xorshift seed and the mutant count are fixed, so every run replays
//! the same inputs in well under five seconds. A mutant that ever breaks
//! a property is added to [`REGRESSIONS`], which replays before the fuzz
//! loop.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::panic;
use std::process::Command;
use std::sync::Arc;

use warpstl_campaign::{CampaignReport, CampaignSpec, Cell, CellResult};
use warpstl_core::jobs::{analyze_job, compact_job, lint_job, stl_report_array, JobOptions};
use warpstl_fault::{FaultModel, SimBackend};
use warpstl_netlist::modules::ModuleKind;
use warpstl_obs::json::{escape, parse, Json, Writer};
use warpstl_obs::Recorder;
use warpstl_programs::generators::{generate_imm, generate_mem, ImmConfig, MemConfig};
use warpstl_programs::serialize::ptp_to_text;
use warpstl_serve::{serve, ServeConfig};

/// Mutants that once broke a property, replayed on every run: an
/// unterminated string whose error named no offset, and an exponent past
/// `f64`'s range that parsed to an infinity no writer can emit.
const REGRESSIONS: &[&str] = &["{\"ptp\": \"", "[1.5E+700]"];

/// Mutants per run: the fixed budget.
const MUTANTS: usize = 60_000;

/// The classic xorshift64 generator — deterministic, dependency-free.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// Uniform-enough index in `0..n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One HTTP/1.1 exchange against the in-process daemon; returns the body.
fn exchange(addr: SocketAddr, method: &str, target: &str, body: &str) -> String {
    let mut conn = TcpStream::connect(addr).unwrap();
    let request = format!(
        "{method} {target} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    conn.write_all(request.as_bytes()).unwrap();
    let mut raw = String::new();
    conn.read_to_string(&mut raw).unwrap();
    raw.split_once("\r\n\r\n").unwrap().1.to_string()
}

fn xlint_json() -> String {
    let dir = std::env::temp_dir().join(format!("warpstl-json-fuzz-{}", std::process::id()));
    let src = dir.join("crates/app/src");
    std::fs::create_dir_all(&src).unwrap();
    std::fs::write(dir.join("Cargo.toml"), "[workspace]\n").unwrap();
    std::fs::write(
        src.join("lib.rs"),
        "use std::sync::Mutex;\nfn f() { unsafe { g() } }\n",
    )
    .unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_warpstl"))
        .args(["xlint", "--json"])
        .arg(&dir)
        .output()
        .unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    String::from_utf8(out.stdout).unwrap()
}

fn corpus() -> Vec<String> {
    let imm = ptp_to_text(&generate_imm(&ImmConfig {
        sb_count: 2,
        ..ImmConfig::default()
    }));
    let mem = ptp_to_text(&generate_mem(&MemConfig {
        sb_count: 2,
        ..MemConfig::default()
    }));
    let stl = format!("; STL fuzz\n{imm}{mem}");
    let opts = JobOptions::default();

    let rec = Arc::new(Recorder::new());
    let job = compact_job(&imm, &opts, None, Some(Arc::clone(&rec))).unwrap();
    let cell = |lanes| Cell {
        module: ModuleKind::DecoderUnit,
        lanes,
        model: FaultModel::StuckAt,
        backend: SimBackend::Auto,
        drop_detected: true,
    };
    let campaign = CampaignReport {
        name: "fuzz \"quoted\"\n".into(),
        cells: vec![
            CellResult {
                cell: cell(8),
                outcome: Ok(job.report.clone()),
            },
            CellResult {
                cell: cell(12),
                outcome: Err("bad request: invalid lane count 12".into()),
            },
        ],
    };

    let compact_body = format!("{{\"ptp\": \"{}\"}}", escape(&imm));
    let stl_body = format!("{{\"stl\": \"{}\"}}", escape(&stl));
    let handle = serve(&ServeConfig::default()).unwrap();
    let addr = handle.addr();
    let served = [
        exchange(addr, "POST", "/compact", &compact_body),
        exchange(addr, "POST", "/compact-stl", &stl_body),
        exchange(addr, "POST", "/analyze", "{\"module\": \"decoder_unit\"}"),
        exchange(addr, "POST", "/lint", &compact_body),
        exchange(addr, "POST", "/compact", "{\"ptp\": 42}"),
        exchange(addr, "GET", "/metrics", ""),
    ];
    handle.shutdown();

    let mut corpus = vec![
        include_str!("../../../examples/campaign.json").to_string(),
        include_str!("../../../BENCH_fsim.json").to_string(),
        compact_body,
        stl_body,
        "{\"ptp\": \"x\", \"options\": {\"reverse\": true, \"backend\": \"kernel\", \"threads\": 2}}"
            .to_string(),
        "{\"ptp\": \"x\", \"options\": {\"threads\": -1}}".to_string(),
        "{\"module\": \"decoder_unit\", \"lanes\": 16}".to_string(),
        // Grammar corners the writers never emit: exponents, escapes,
        // surrogate pairs, nesting, literals.
        r#"{"n": [0, -0.5, 1.5E+300, 2e-7, 10], "s": "\u00e9\ud83d\ude80\/\b\f", "d": [[{}], null, true, false]}"#
            .to_string(),
        job.report_json.clone(),
        stl_report_array(&[job.report.clone(), job.report]),
        campaign.to_json(),
        analyze_job("redundant-logic", 0).unwrap().report_json,
        lint_job(&imm).unwrap().report_json,
        rec.to_chrome_trace(),
        xlint_json(),
    ];
    corpus.extend(served);
    for doc in &corpus {
        assert!(parse(doc).is_ok(), "corpus entry is not valid JSON: {doc}");
    }
    corpus
}

/// Applies one mutation operator to `bytes`.
fn mutate(rng: &mut XorShift, bytes: &mut Vec<u8>, corpus: &[String]) {
    if bytes.is_empty() {
        bytes.push(b'{');
        return;
    }
    match rng.below(4) {
        // Byte flip: one bit of one byte.
        0 => {
            let i = rng.below(bytes.len());
            bytes[i] ^= 1 << rng.below(8);
        }
        // Truncate.
        1 => bytes.truncate(rng.below(bytes.len())),
        // Splice: this input's prefix, another entry's suffix.
        2 => {
            let other = corpus[rng.below(corpus.len())].as_bytes();
            let cut = rng.below(bytes.len());
            let from = rng.below(other.len());
            bytes.truncate(cut);
            bytes.extend_from_slice(&other[from..]);
        }
        // Token duplicate: repeat a short run in place.
        _ => {
            let start = rng.below(bytes.len());
            let end = (start + 1 + rng.below(16)).min(bytes.len());
            let run = bytes[start..end].to_vec();
            bytes.splice(end..end, run);
        }
    }
}

/// Writes a parsed value back out on one line through the codec's writer.
fn write(value: &Json) -> String {
    fn put<'w>(w: &'w mut Writer, v: &Json) -> &'w mut Writer {
        match v {
            Json::Null => w.value(None::<bool>),
            Json::Bool(b) => w.value(b),
            Json::Num(n) => w.value(n),
            Json::Str(s) => w.value(s),
            Json::Arr(items) => {
                w.inline_array();
                items.iter().fold(w, put).end()
            }
            Json::Obj(map) => {
                w.inline_object();
                map.iter().fold(w, |w, (k, v)| put(w.key(k), v)).end()
            }
        }
    }
    let mut w = Writer::new();
    put(&mut w, value);
    w.finish()
}

/// The offset an error message names (`... at byte N`).
fn error_offset(err: &str) -> Option<usize> {
    err.rsplit_once("at byte ")?.1.parse().ok()
}

/// Checks every property on one input; `Err` describes the violation.
fn check(text: &str) -> Result<(), String> {
    let outcome = panic::catch_unwind(|| (parse(text), CampaignSpec::parse(text)));
    let (json, spec) = outcome.map_err(|_| "a reader panicked".to_string())?;
    match json {
        Ok(value) => {
            let written = write(&value);
            if parse(&written).as_ref() != Ok(&value) {
                return Err(format!("write-back does not round-trip: {written:?}"));
            }
        }
        Err(err) => match error_offset(&err) {
            Some(at) if at <= text.len() => {}
            _ => return Err(format!("error without an in-range offset: {err}")),
        },
    }
    if let Err(err) = spec {
        if error_offset(&err).is_some_and(|at| at > text.len()) {
            return Err(format!("spec error offset past the input: {err}"));
        }
    }
    Ok(())
}

#[test]
fn mutated_documents_keep_the_reader_properties() {
    for input in REGRESSIONS {
        if let Err(why) = check(input) {
            panic!("regression input {input:?}: {why}");
        }
    }
    let corpus = corpus();
    for doc in &corpus {
        check(doc).unwrap();
    }
    let mut rng = XorShift(0x9E37_79B9_7F4A_7C15);
    let mut parsed = 0;
    for _ in 0..MUTANTS {
        let mut bytes = corpus[rng.below(corpus.len())].clone().into_bytes();
        for _ in 0..=rng.below(4) {
            mutate(&mut rng, &mut bytes, &corpus);
        }
        let text = String::from_utf8_lossy(&bytes);
        if let Err(why) = check(&text) {
            panic!("mutant {text:?}: {why}");
        }
        parsed += usize::from(parse(&text).is_ok());
    }
    // The mutants must reach both sides of the parser, not only errors.
    assert!(parsed > 0, "no mutant parsed: the operators are too coarse");
}
