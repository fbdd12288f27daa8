//! The instruction labeling algorithm (Fig. 2 of the paper).

use warpstl_fault::FaultSimReport;
use warpstl_gpu::Trace;

/// Per-instruction essential/unessential labels (the LPTP of the paper).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Labels {
    essential: Vec<bool>,
}

impl Labels {
    /// Whether instruction `pc` is essential.
    #[must_use]
    pub fn is_essential(&self, pc: usize) -> bool {
        self.essential[pc]
    }

    /// The number of essential instructions.
    #[must_use]
    pub fn essential_count(&self) -> usize {
        self.essential.iter().filter(|&&e| e).count()
    }

    /// The number of instructions labeled.
    #[must_use]
    pub fn len(&self) -> usize {
        self.essential.len()
    }

    /// Whether the program was empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.essential.is_empty()
    }
}

/// Labels each of the `program_len` instructions as essential or
/// unessential.
///
/// Implements the paper's Fig. 2: every instruction `I` starts
/// `unessential`; the tracing report gives the clock-cycle interval of each
/// execution of `I` per warp; `I` becomes `essential` as soon as any of
/// those intervals contains a clock cycle at which the Fault Sim Report
/// records a (new) detection.
///
/// # Examples
///
/// ```
/// use warpstl_core::label_instructions;
/// use warpstl_fault::FaultSimReport;
/// use warpstl_gpu::{Gpu, Kernel, KernelConfig, RunOptions};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let program = warpstl_isa::asm::assemble("NOP;\nNOP;\nEXIT;")?;
/// let kernel = Kernel::new("t", program, KernelConfig::new(1, 32));
/// let run = Gpu::default().run(&kernel, &RunOptions::tracing())?;
///
/// let mut report = FaultSimReport::new();
/// // Pretend a fault was detected during the second NOP's interval.
/// let second = run.trace.records()[1];
/// report.record_detected(second.cc_start + 1, 1);
///
/// let labels = label_instructions(3, &run.trace, &report);
/// assert!(!labels.is_essential(0));
/// assert!(labels.is_essential(1));
/// assert_eq!(labels.essential_count(), 1);
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn label_instructions(program_len: usize, trace: &Trace, report: &FaultSimReport) -> Labels {
    let mut essential = vec![false; program_len];
    for (pc, flag) in essential.iter_mut().enumerate() {
        // "for each warp Wj executed by I ... for each clock cycle k in Wj:
        //  if FSR_cc_k detects faults then essential; go to next instruction"
        for rec in trace.records_for_pc(pc) {
            if report.detections_in_range(rec.cc_start, rec.cc_end) > 0 {
                *flag = true;
                break;
            }
        }
    }
    Labels { essential }
}

#[cfg(test)]
mod tests {
    use super::*;
    use warpstl_gpu::{Gpu, Kernel, KernelConfig, RunOptions};

    fn traced(src: &str, threads: usize) -> Trace {
        let program = warpstl_isa::asm::assemble(src).unwrap();
        let kernel = Kernel::new("t", program, KernelConfig::new(1, threads));
        Gpu::default()
            .run(&kernel, &RunOptions::tracing())
            .unwrap()
            .trace
    }

    #[test]
    fn no_detections_labels_everything_unessential() {
        let trace = traced("NOP;\nNOP;\nEXIT;", 32);
        let labels = label_instructions(3, &trace, &FaultSimReport::new());
        assert_eq!(labels.essential_count(), 0);
        assert_eq!(labels.len(), 3);
    }

    #[test]
    fn any_warp_interval_suffices() {
        // Two warps execute the same instruction at different ccs; a
        // detection during the *second* warp's interval still marks it.
        let trace = traced("IADD R1, R1, 0x1;\nEXIT;", 64);
        let recs: Vec<_> = trace.records_for_pc(0).collect();
        assert_eq!(recs.len(), 2);
        let second = recs[1];
        let mut report = FaultSimReport::new();
        report.record_detected(second.cc_start, 3);
        let labels = label_instructions(2, &trace, &report);
        assert!(labels.is_essential(0));
        assert!(!labels.is_essential(1));
    }

    #[test]
    fn interval_bounds_are_half_open() {
        let trace = traced("NOP;\nNOP;\nEXIT;", 32);
        let first = trace.records()[0];
        let mut report = FaultSimReport::new();
        // A detection exactly at cc_end belongs to the next instruction.
        report.record_detected(first.cc_end, 1);
        let labels = label_instructions(3, &trace, &report);
        assert!(!labels.is_essential(0));
        assert!(labels.is_essential(1));
    }

    #[test]
    fn untraced_instructions_stay_unessential() {
        // Dead code after EXIT never executes, so it is never essential.
        let trace = traced("EXIT;\nNOP;", 32);
        let mut report = FaultSimReport::new();
        report.record_detected(0, 1);
        let labels = label_instructions(2, &trace, &report);
        assert!(!labels.is_essential(1));
    }
}
