//! Stage 2: confirming type-(iii) sync ops with a points-to analysis.
//!
//! Stage 1 marks `LOCK`-prefixed and `XCHG` instructions and collects the
//! synchronization-variable symbols they touch.  Stage 2 decides which of the
//! ordinary aligned loads/stores must *also* be instrumented: exactly those
//! whose memory operand may alias one of the stage-1 synchronization
//! variables (§4.3: the store at line 9 of Listing 1 aliases the variable the
//! CAS at line 4 points to, so it is a sync op too).
//!
//! Aliasing can be decided in two ways, both provided here:
//!
//! * **Symbol identity** — when the operands name the same global symbol the
//!   alias is syntactic; no analysis is needed.
//! * **Points-to** — when pointers are involved, a
//!   [`PointsToAnalysis`] decides may-alias
//!   between the operand's pointer and each synchronization variable.

use std::collections::BTreeMap;

use crate::asm::Module;
use crate::classify::{classify_module, SyncOpReport};
use crate::pointsto::PointsToAnalysis;

/// Identifies all sync ops in `module`, confirming type-(iii) candidates.
///
/// `pointer_bindings` maps an instruction's memory-operand *symbol* to the
/// name of the pointer variable it was loaded through (empty when the operand
/// names a global directly).  `analysis` answers may-alias queries for those
/// pointers; pass `None` to use symbol identity only (the fully manual
/// stage-2 the paper performed for its benchmarks).
pub fn identify_sync_ops(
    module: &Module,
    pointer_bindings: &BTreeMap<String, String>,
    analysis: Option<&dyn PointsToAnalysis>,
) -> SyncOpReport {
    let mut report = classify_module(module);
    let sync_symbols = report.sync_symbols.clone();

    // Pointers that are known to point to sync variables, according to the
    // points-to analysis: a pointer aliases a sync variable when its
    // points-to set contains the symbol.
    let confirmed: Vec<usize> = report
        .type_iii_candidates
        .iter()
        .copied()
        .filter(|&idx| {
            let ins = &module.instructions[idx];
            let mem = match ins.memory_operand() {
                Some(m) => m,
                None => return false,
            };
            // Direct symbol identity.
            if sync_symbols.contains(&mem.symbol) {
                return true;
            }
            // Pointer-mediated access: consult the points-to analysis.
            if let (Some(pointer), Some(analysis)) = (pointer_bindings.get(&mem.symbol), analysis) {
                let pts = analysis.points_to(pointer);
                return sync_symbols.iter().any(|s| pts.contains(s));
            }
            false
        })
        .collect();
    report.type_iii = confirmed;
    report
}

/// Convenience: stage 1 + stage 2 with symbol identity only.
pub fn identify_sync_ops_syntactic(module: &Module) -> SyncOpReport {
    identify_sync_ops(module, &BTreeMap::new(), None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pointsto::{AndersenAnalysis, PointsToProgram};

    /// The paper's Listing 1 translated to the toy assembly: the unlock store
    /// writes through a pointer (`ptr_deref`) that aliases `spinlock`.
    const LISTING: &str = r#"
fn spinlock_lock
lock cmpxchg %ecx, spinlock    ; line 4
fn spinlock_unlock
mov $0, ptr_deref              ; line 9
fn unrelated
mov %eax, plain_global
"#;

    #[test]
    fn syntactic_identity_confirms_direct_global_stores() {
        let listing = "lock cmpxchg %ecx, spinlock\nmov $0, spinlock\nmov %eax, other";
        let m = Module::parse("t", listing);
        let r = identify_sync_ops_syntactic(&m);
        assert_eq!(r.type_i.len(), 1);
        assert_eq!(
            r.type_iii,
            vec![1],
            "the store to the same symbol is type (iii)"
        );
    }

    #[test]
    fn points_to_analysis_confirms_pointer_mediated_stores() {
        let m = Module::parse("t", LISTING);

        // ptr_deref is the dereference of `ptr`, which points to `spinlock`.
        let mut prog = PointsToProgram::new();
        prog.address_of("ptr", "spinlock");
        let analysis = AndersenAnalysis::solve(&prog);

        let mut bindings = BTreeMap::new();
        bindings.insert("ptr_deref".to_string(), "ptr".to_string());

        let r = identify_sync_ops(&m, &bindings, Some(&analysis));
        assert_eq!(r.type_i.len(), 1);
        assert_eq!(r.type_iii.len(), 1, "the unlock store is confirmed");
        assert_eq!(r.type_iii[0], 1);
        assert_eq!(r.total(), 2);
    }

    #[test]
    fn unrelated_stores_are_not_confirmed() {
        let m = Module::parse("t", LISTING);
        let mut prog = PointsToProgram::new();
        prog.address_of("ptr", "something_else");
        let analysis = AndersenAnalysis::solve(&prog);
        let mut bindings = BTreeMap::new();
        bindings.insert("ptr_deref".to_string(), "ptr".to_string());
        let r = identify_sync_ops(&m, &bindings, Some(&analysis));
        assert!(r.type_iii.is_empty());
    }

    #[test]
    fn without_analysis_pointer_mediated_stores_are_missed() {
        // The limitation the paper works around with manual analysis or
        // qualification: without points-to info the unlock store through a
        // pointer is not recognized.
        let m = Module::parse("t", LISTING);
        let r = identify_sync_ops_syntactic(&m);
        assert!(r.type_iii.is_empty());
        assert_eq!(r.type_i.len(), 1);
    }

    #[test]
    fn soundness_stage2_never_removes_stage1_ops() {
        let m = Module::parse("t", LISTING);
        let stage1 = classify_module(&m);
        let full = identify_sync_ops_syntactic(&m);
        assert_eq!(stage1.type_i, full.type_i);
        assert_eq!(stage1.type_ii, full.type_ii);
        assert!(full.total() >= stage1.type_i.len() + stage1.type_ii.len());
    }
}
