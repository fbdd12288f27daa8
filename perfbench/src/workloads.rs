//! Seeded input generation for the three workloads.
//!
//! Every input is generated here from the `--seed` argument; the program
//! under test only ever receives the generated text. The seed changes the
//! generators' random streams (which instructions, operands and ATPG
//! patterns appear) but never the sizes, so runs at different seeds do the
//! same amount of work on different programs.

use warpstl_bench::Scale;
use warpstl_fault::FaultModel;
use warpstl_programs::generators::{
    generate_cntrl, generate_imm, generate_mem, generate_rand_sp, generate_sfu_imm, generate_tpgen,
    ImmConfig, MemConfig, SfuImmConfig,
};
use warpstl_programs::serialize::{ptp_to_text, stl_to_text};
use warpstl_programs::{Ptp, Stl};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's six-PTP STL at divisor 32 through one `compact_stl_job`.
    StlCold,
    /// The Decoder Unit group at paper scale through one `compact_stl_job`.
    DuTrace,
    /// Two closed-loop clients against an in-process `serve` with a store.
    ServeMix,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::StlCold, Workload::DuTrace, Workload::ServeMix];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::StlCold => "stl_cold",
            Workload::DuTrace => "du_trace",
            Workload::ServeMix => "serve_mix",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size: `Full` is what the benchmark measures, `Tiny` is the
/// seconds-long variant the self-tests run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Full,
    /// A fast variant with the same structure.
    Tiny,
}

impl Size {
    /// The command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Tiny => "tiny",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Size> {
        [Size::Full, Size::Tiny]
            .into_iter()
            .find(|s| s.name() == name)
    }
}

/// SplitMix64: derives independent generator seeds from the workload seed.
#[must_use]
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The paper-scale divisor of a batch workload at `size`.
#[must_use]
pub fn divisor(workload: Workload, size: Size) -> usize {
    match (workload, size) {
        (Workload::StlCold, Size::Full) => 32,
        (Workload::StlCold, Size::Tiny) => 512,
        (Workload::DuTrace, Size::Full) => 1,
        (Workload::DuTrace, Size::Tiny) => 128,
        (Workload::ServeMix, _) => 0,
    }
}

/// The STL of a batch workload, as the text the CLI's `compact-stl` reads.
///
/// `stl_cold` is the paper's six PTPs (IMM, MEM, CNTRL, TPGEN, RAND,
/// SFU_IMM) in the paper's compaction order; `du_trace` is the Decoder
/// Unit group (IMM, MEM, CNTRL).
#[must_use]
pub fn batch_stl(workload: Workload, size: Size, seed: u64) -> String {
    let scale = Scale::new(divisor(workload, size));
    let mut stl = Stl::new(workload.name());
    let mut imm = scale.imm();
    imm.seed = mix(seed, 1);
    let mut mem = scale.mem();
    mem.seed = mix(seed, 2);
    let mut cntrl = scale.cntrl();
    cntrl.seed = mix(seed, 3);
    stl.push(generate_imm(&imm));
    stl.push(generate_mem(&mem));
    stl.push(generate_cntrl(&cntrl));
    if workload == Workload::StlCold {
        let mut tpgen = scale.tpgen();
        tpgen.seed = mix(seed, 4);
        let mut rand = scale.rand();
        rand.seed = mix(seed, 5);
        let mut sfu = scale.sfu_imm();
        sfu.seed = mix(seed, 6);
        stl.push(generate_tpgen(&tpgen));
        stl.push(generate_rand_sp(&rand));
        stl.push(generate_sfu_imm(&sfu));
    }
    stl_to_text(&stl)
}

/// One distinct `/compact` request of the `serve_mix` pool.
#[derive(Debug, Clone)]
pub struct MixItem {
    /// The PTP text sent as the request's `ptp` field.
    pub ptp: String,
    /// The fault model sent as `options.fault_model`.
    pub model: FaultModel,
}

impl MixItem {
    /// The JSON request body.
    #[must_use]
    pub fn body(&self) -> String {
        format!(
            "{{\"ptp\": \"{}\", \"options\": {{\"fault_model\": \"{}\"}}}}",
            warpstl_serve::json::escape(&self.ptp),
            self.model
        )
    }
}

/// The `serve_mix` traffic: a pool of distinct requests and the order in
/// which the clients send them (indices into the pool).
#[derive(Debug, Clone)]
pub struct Mix {
    /// Distinct requests; each is sent once as a first-seen request.
    pub items: Vec<MixItem>,
    /// The request sequence. Request `i` goes to client `i % CLIENTS`.
    pub order: Vec<usize>,
}

/// Closed-loop clients driving `serve_mix`.
pub const CLIENTS: usize = 2;

/// A repeat refers to an item first sent at least this many requests
/// earlier, so that with two clients in flight its first instance has
/// normally finished (and written the store) before the repeat arrives.
const REPEAT_DISTANCE: usize = 4;

/// Small xorshift stream for the mix order (independent of the
/// generators' own streams).
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Generates the `serve_mix` traffic: `requests` requests of which half
/// are first-seen (store writes) and half repeat an earlier request (store
/// reads), over small IMM, MEM and SFU_IMM programs under stuck-at and
/// bridging faults.
#[must_use]
pub fn serve_mix(size: Size, seed: u64) -> Mix {
    let (requests, imm_sbs, mem_sbs, sfu_patterns) = match size {
        Size::Full => (104, 12, 10, 24),
        Size::Tiny => (8, 8, 8, 24),
    };
    let distinct = requests / 2;
    let mut rng = XorShift(mix(seed, 7) | 1);
    let items: Vec<MixItem> = (0..distinct)
        .map(|i| {
            let s = mix(seed, 100 + i as u64);
            let ptp: Ptp = match i % 3 {
                0 => generate_imm(&ImmConfig {
                    sb_count: imm_sbs,
                    seed: s,
                    ..ImmConfig::default()
                }),
                1 => generate_mem(&MemConfig {
                    sb_count: mem_sbs,
                    seed: s,
                    ..MemConfig::default()
                }),
                _ => generate_sfu_imm(&SfuImmConfig {
                    max_patterns: sfu_patterns,
                    seed: s,
                    ..SfuImmConfig::default()
                }),
            };
            let model = if (i / 3) % 2 == 0 {
                FaultModel::StuckAt
            } else {
                FaultModel::Bridging
            };
            MixItem {
                ptp: ptp_to_text(&ptp),
                model,
            }
        })
        .collect();

    // Greedy seeded order: a first-seen request with probability
    // remaining-new / remaining-slots, forced when no earlier item is far
    // enough back to repeat.
    let mut order = Vec::with_capacity(requests);
    let mut first_sent: Vec<usize> = Vec::new(); // position each item was first sent
    for pos in 0..requests {
        let new_left = distinct - first_sent.len();
        let slots_left = requests - pos;
        let eligible = first_sent
            .iter()
            .filter(|&&p| p + REPEAT_DISTANCE <= pos)
            .count();
        let take_new = new_left > 0
            && (eligible == 0 || new_left == slots_left || rng.below(slots_left) < new_left);
        if take_new {
            order.push(first_sent.len());
            first_sent.push(pos);
        } else {
            let pick = rng.below(eligible);
            let item = first_sent
                .iter()
                .enumerate()
                .filter(|(_, &p)| p + REPEAT_DISTANCE <= pos)
                .nth(pick)
                .map(|(i, _)| i)
                .expect("eligible item");
            order.push(item);
        }
    }
    Mix { items, order }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_half_first_seen_and_repeats_are_far_enough_back() {
        let mix = serve_mix(Size::Tiny, 7);
        let mut seen = vec![None; mix.items.len()];
        for (pos, &item) in mix.order.iter().enumerate() {
            match seen[item] {
                None => seen[item] = Some(pos),
                Some(first) => assert!(first + REPEAT_DISTANCE <= pos),
            }
        }
        assert!(seen.iter().all(Option::is_some));
        assert_eq!(mix.order.len(), 2 * mix.items.len());
    }

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(
            batch_stl(Workload::DuTrace, Size::Tiny, 3),
            batch_stl(Workload::DuTrace, Size::Tiny, 3)
        );
        assert_ne!(
            batch_stl(Workload::DuTrace, Size::Tiny, 3),
            batch_stl(Workload::DuTrace, Size::Tiny, 4)
        );
    }
}
