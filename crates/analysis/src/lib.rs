//! Static identification and instrumentation of synchronization operations.
//!
//! The paper's agents can only replay the sync ops that were instrumented, so
//! finding *all* of them is a prerequisite (§4.3).  The paper's two-stage
//! strategy is:
//!
//! 1. **Stage 1** — scan the binary's instructions and mark every
//!    `LOCK`-prefixed instruction (type i) and every `XCHG` (type ii) as a
//!    sync op.  These are the only x86 encodings of atomic read-modify-write
//!    accesses.
//! 2. **Stage 2** — run a points-to analysis and additionally mark aligned
//!    load/store instructions (type iii) whose memory operand *may alias* a
//!    variable accessed by a type i/ii instruction.
//!
//! The paper prototypes the stage-2 analysis twice (a Steensgaard-style
//! unification analysis on LLVM's DSA, and an Andersen-style subset analysis
//! on SVF) and also describes an alternative workflow based on C11 `_Atomic`
//! type qualification with a modified clang that propagates the qualifier
//! along def-use chains.  This crate reproduces all of those pieces over a
//! small x86-like module model:
//!
//! * [`asm`] — the instruction/module model and the textual assembly parser.
//! * [`classify`] — stage 1 and the per-module sync-op report (Table 3).
//! * [`pointsto`] — Steensgaard and Andersen points-to analyses.
//! * [`stage2`] — stage 2: marking type-iii instructions via may-alias.
//! * [`qualify`] — the `_Atomic` qualifier propagation workflow with
//!   clang-style diagnostics.
//! * [`instrument`] — inserting the `before_sync_op` / `after_sync_op` calls.
//! * [`corpus`] — synthetic corpora modelled after the libraries and binaries
//!   of Table 3, used by the `paper` bench binary's `table3` rows.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asm;
pub mod classify;
pub mod corpus;
pub mod instrument;
pub mod pointsto;
pub mod qualify;
pub mod stage2;

pub use asm::{Instruction, MemRef, Module, Operand};
pub use classify::{classify_module, SyncOpClass, SyncOpReport};
pub use instrument::instrument_module;
pub use pointsto::{AndersenAnalysis, PointsToAnalysis, PointsToProgram, SteensgaardAnalysis};
pub use stage2::identify_sync_ops;
