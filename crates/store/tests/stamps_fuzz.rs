//! Seeded mutation fuzzing of the fsim-stamp (`.fsr`) payload codec,
//! [`FsimStamps::encode`] / [`FsimStamps::decode`].
//!
//! Random stamps in the form the engine captures (nonzero per-cc counts
//! with strictly ascending ccs, arbitrary detection events) must survive
//! an encode/decode round trip unchanged. Their encodings then seed a
//! corpus of mutants, each after one to four of: a byte flip, a
//! truncation, a splice with another corpus entry, or the duplication of a
//! short run of bytes. Checked on every mutant:
//!
//! - `decode` never panics;
//! - whatever decodes re-encodes to the mutant's exact bytes (the payload
//!   has one encoding per value);
//! - the replay guard `bounded_by` never panics on it.
//!
//! The xorshift seed and counts are fixed, so every run replays the same
//! inputs.

use std::panic;

use warpstl_netlist::PatternSeq;
use warpstl_store::FsimStamps;

/// Random stamps per run, and mutants per run.
const STAMPS: usize = 2_000;
const MUTANTS: usize = 40_000;

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

    /// A small value most of the time, any 64-bit value sometimes, so both
    /// realistic payloads and the encoding's extremes occur.
    fn value(&mut self) -> u64 {
        if self.below(8) == 0 {
            self.next()
        } else {
            self.next() % 4096
        }
    }
}

fn random_stamps(rng: &mut XorShift) -> FsimStamps {
    let mut cc = 0u64;
    let by_cc = (0..rng.below(12))
        .map_while(|_| {
            cc = cc.checked_add(1 + rng.value())?;
            Some((cc, 1 + rng.value() as u32 % u32::MAX))
        })
        .collect();
    let report_detections = (0..rng.below(12))
        .map(|_| (rng.value() as usize, rng.value(), rng.value() as usize))
        .collect();
    FsimStamps {
        by_cc,
        report_detections,
    }
}

fn mutate(rng: &mut XorShift, bytes: &mut Vec<u8>, corpus: &[Vec<u8>]) {
    if bytes.is_empty() {
        bytes.push(0);
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
            let other = &corpus[rng.below(corpus.len())];
            let cut = rng.below(bytes.len());
            let from = rng.below(other.len().max(1));
            bytes.truncate(cut);
            bytes.extend_from_slice(other.get(from..).unwrap_or_default());
        }
        // Duplicate a short run in place.
        _ => {
            let start = rng.below(bytes.len());
            let end = (start + 1 + rng.below(24)).min(bytes.len());
            let run = bytes[start..end].to_vec();
            bytes.splice(end..end, run);
        }
    }
}

/// The properties every mutant must keep; `Err` describes a violation.
fn check(bytes: &[u8], patterns: &PatternSeq) -> Result<(), String> {
    let decoded = panic::catch_unwind(|| FsimStamps::decode(bytes))
        .map_err(|_| "decode panicked".to_string())?;
    let Some(stamps) = decoded else {
        return Ok(());
    };
    if stamps.encode() != bytes {
        return Err(format!("{stamps:?} re-encodes to different bytes"));
    }
    panic::catch_unwind(|| stamps.bounded_by(64, patterns))
        .map_err(|_| format!("bounded_by panicked on {stamps:?}"))?;
    Ok(())
}

#[test]
fn random_stamps_round_trip() {
    let mut rng = XorShift(0x5EED_F5A0_0000_0001);
    for _ in 0..STAMPS {
        let stamps = random_stamps(&mut rng);
        assert_eq!(FsimStamps::decode(&stamps.encode()), Some(stamps));
    }
}

#[test]
fn mutated_payloads_never_panic_and_reencode_exactly() {
    let mut rng = XorShift(0x9E37_79B9_7F4A_7C15);
    let mut corpus: Vec<Vec<u8>> = (0..64).map(|_| random_stamps(&mut rng).encode()).collect();
    corpus.push(FsimStamps::default().encode());
    let mut patterns = PatternSeq::new(1);
    for t in 0..16 {
        patterns.push_value(t, t & 1);
    }
    let mut decoded = 0;
    for _ in 0..MUTANTS {
        let mut bytes = corpus[rng.below(corpus.len())].clone();
        for _ in 0..=rng.below(4) {
            mutate(&mut rng, &mut bytes, &corpus);
        }
        if let Err(why) = check(&bytes, &patterns) {
            panic!("mutant {bytes:?}: {why}");
        }
        decoded += usize::from(FsimStamps::decode(&bytes).is_some());
    }
    // The mutants must reach past the length checks, or the fuzz shows
    // nothing about the decoder's value handling.
    assert!(decoded > MUTANTS / 100, "only {decoded} mutants decoded");
}
