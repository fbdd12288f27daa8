//! The ATPG-to-instructions flow behind the TPGEN and SFU_IMM programs:
//! run PODEM on the SP-core gate model, convert the patterns to SASS-like
//! instructions (partially — some patterns have no instruction
//! equivalent), execute them on the GPU model, and check which faults the
//! *captured* patterns actually detect.
//!
//! ```sh
//! cargo run --release --example atpg_flow
//! ```

use warpstl::atpg::convert::{convert_sp_pattern, ConversionStats};
use warpstl::atpg::{generate_patterns, AtpgConfig};
use warpstl::fault::{fault_simulate, FaultList, FaultSimConfig, FaultUniverse, SimGuide};
use warpstl::gpu::{Gpu, Kernel, KernelConfig, RunOptions};
use warpstl::isa::{Instruction, Opcode};
use warpstl::netlist::modules::ModuleKind;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The gate-level SP core and its stuck-at fault universe.
    let netlist = ModuleKind::SpCore.build();
    let universe = FaultUniverse::enumerate(&netlist);
    println!("target module: {netlist}");
    println!(
        "fault universe: {} total, {} after equivalence collapsing",
        universe.total_len(),
        universe.collapsed_len()
    );

    // 2. ATPG (PODEM with fault dropping).
    let atpg = generate_patterns(
        &netlist,
        &AtpgConfig {
            max_patterns: 60,
            backtrack_limit: 60,
            ..AtpgConfig::default()
        },
    );
    println!(
        "\nATPG: {} patterns, {:.2}% coverage, {} untestable, {} aborted",
        atpg.patterns.len(),
        atpg.coverage() * 100.0,
        atpg.untestable,
        atpg.aborted
    );

    // 3. The parser tool: patterns -> instruction snippets.
    let mut program: Vec<Instruction> = Vec::new();
    let mut stats = ConversionStats::default();
    for (bits, care) in atpg.patterns.iter().zip(&atpg.assignments) {
        match convert_sp_pattern(bits, care) {
            Some(snippet) => {
                program.extend(snippet);
                stats.converted += 1;
            }
            None => stats.dropped += 1,
        }
    }
    program.push(Instruction::bare(Opcode::Exit));
    println!(
        "conversion: {}/{} patterns ({:.1}%), {} instructions",
        stats.converted,
        stats.converted + stats.dropped,
        stats.rate() * 100.0,
        program.len()
    );

    // 4. Execute on the GPU model with SP pattern capture.
    let kernel = Kernel::new("tpgen-demo", program, KernelConfig::new(1, 32));
    let run = Gpu::default().run(
        &kernel,
        &RunOptions {
            capture_sp: true,
            ..RunOptions::default()
        },
    )?;
    println!(
        "\nexecuted in {} ccs; SP core 0 saw {} patterns",
        run.cycles,
        run.patterns.sp[0].len()
    );

    // 5. Fault-simulate the captured per-core streams.
    let mut total_fc = 0.0;
    for (i, stream) in run.patterns.sp.iter().enumerate() {
        let mut list = FaultList::new(&universe);
        fault_simulate(
            &netlist,
            stream,
            &mut list,
            &FaultSimConfig::default(),
            None,
            &SimGuide::default(),
        );
        println!(
            "SP core {i}: {:.2}% fault coverage",
            list.coverage() * 100.0
        );
        total_fc += list.coverage();
    }
    println!(
        "mean over 8 SP cores: {:.2}%",
        total_fc / run.patterns.sp.len() as f64 * 100.0
    );
    Ok(())
}
