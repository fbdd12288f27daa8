#![warn(missing_docs)]
//! # warpstl-fault
//!
//! Fault modelling (stuck-at, bridging, transition delay) and fault
//! simulation for the gate-level modules of
//! [`warpstl-netlist`](warpstl_netlist).
//!
//! The crate provides:
//!
//! - [`Fault`] / [`FaultSite`] — single stuck-at faults on gate outputs
//!   (stems) and gate input pins (fanout branches);
//! - [`FaultUniverse`] — exhaustive fault enumeration with structural
//!   equivalence collapsing;
//! - [`FaultList`] — the mutable detection ledger the compaction flow
//!   shares across test programs (the paper's *fault dropping* mechanism);
//! - [`fault_simulate`] — the one fault-simulation entry point, generic over
//!   the fault model ([`Injectable`]: stuck-at [`Fault`]s, sampled
//!   [`BridgeFault`]s and [`tdf::TransitionFault`]s), simulating
//!   timestamped pattern sequences with a levelized pattern-parallel kernel
//!   (combinational netlists) or a fault-parallel event path (63 faults + 1
//!   good machine per machine word), and producing the per-cycle *Fault Sim
//!   Report* the instruction-labeling stage consumes;
//! - [`fault_simulate_reference`] — the serial stuck-at oracle the engine
//!   is tested against.
//!
//! # Examples
//!
//! ```
//! use warpstl_fault::{fault_simulate, FaultList, FaultSimConfig, FaultUniverse, SimGuide};
//! use warpstl_netlist::{Builder, PatternSeq};
//!
//! let mut b = Builder::new("and2");
//! let x = b.input("x");
//! let y = b.input("y");
//! let z = b.and(x, y);
//! b.output("z", z);
//! let netlist = b.finish();
//!
//! let universe = FaultUniverse::enumerate(&netlist);
//! let mut list = FaultList::new(&universe);
//!
//! let mut patterns = PatternSeq::new(2);
//! patterns.push_value(0, 0b11); // detects all stuck-at-0 faults
//! patterns.push_value(1, 0b01); // x=1, y=0
//! patterns.push_value(2, 0b10);
//!
//! let config = FaultSimConfig::default();
//! let report = fault_simulate(&netlist, &patterns, &mut list, &config, None, &SimGuide::default());
//! assert_eq!(list.coverage(), 1.0); // the AND gate is fully testable
//! assert!(report.total_detected() > 0);
//! ```

mod bridge;
pub mod engine;
mod fault;
mod kernel;
mod list;
mod report;
mod sim;
pub mod tdf;
mod universe;

pub use bridge::{BridgeConfig, BridgeFault, BridgeKind, BridgeList, BridgeUniverse, FaultModel};
pub use engine::host_parallelism;
pub use fault::{Fault, FaultSite, Injectable, Polarity};
pub use list::{FaultId, FaultList, FaultStatus};
pub use report::{FaultSimReport, PatternStats};
pub use sim::{fault_simulate, fault_simulate_reference, FaultSimConfig, SimBackend, SimGuide};
pub use universe::FaultUniverse;
