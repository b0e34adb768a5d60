//! Inserting the agent calls around identified sync ops (§4.4, Listing 3).
//!
//! The paper wraps every sync op between calls to `before_sync_op` and
//! `after_sync_op`, implemented by the injected agent (and present as weak
//! no-op symbols so uninstrumented runs still link).  This module performs
//! the same rewrite on the toy module model: it inserts `call` pseudo-
//! instructions around every instruction listed in a
//! [`SyncOpReport`].

use serde::{Deserialize, Serialize};

use crate::asm::{Instruction, MemRef, Module, Operand};
use crate::classify::SyncOpReport;

/// Summary of an instrumentation pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct InstrumentationSummary {
    /// Number of sync ops wrapped.
    pub wrapped_ops: usize,
    /// Number of instructions in the module before the pass.
    pub original_len: usize,
    /// Number of instructions after the pass.
    pub instrumented_len: usize,
}

impl InstrumentationSummary {
    /// Every wrapped op adds exactly two call instructions.
    pub fn is_consistent(&self) -> bool {
        self.instrumented_len == self.original_len + 2 * self.wrapped_ops
    }
}

/// Returns a copy of `module` with every sync op in `report` wrapped between
/// `call before_sync_op` and `call after_sync_op`, together with a summary.
///
/// The inserted calls carry the sync variable as their operand so that later
/// passes (and tests) can check which variable each call guards.
pub fn instrument_module(
    module: &Module,
    report: &SyncOpReport,
) -> (Module, InstrumentationSummary) {
    let sync_indices = report.all_sync_ops();
    let mut out = Module::new(&module.name);
    for (idx, ins) in module.instructions.iter().enumerate() {
        let is_sync = sync_indices.binary_search(&idx).is_ok();
        if is_sync {
            out.push(call_instruction("before_sync_op", ins));
        }
        out.push(ins.clone());
        if is_sync {
            out.push(call_instruction("after_sync_op", ins));
        }
    }
    let summary = InstrumentationSummary {
        wrapped_ops: sync_indices.len(),
        original_len: module.len(),
        instrumented_len: out.len(),
    };
    (out, summary)
}

fn call_instruction(target: &str, wrapped: &Instruction) -> Instruction {
    let operand = wrapped
        .memory_operand()
        .cloned()
        .unwrap_or_else(|| MemRef::to("unknown"));
    Instruction::new(
        "call",
        false,
        vec![Operand::Mem(MemRef::to(target)), Operand::Mem(operand)],
    )
    .at_line(wrapped.source_line)
    .in_function(&wrapped.function)
}

/// Verifies that an instrumented module wraps exactly the expected ops: every
/// sync op is immediately preceded by a `before_sync_op` call and immediately
/// followed by an `after_sync_op` call.
pub fn verify_instrumentation(instrumented: &Module) -> bool {
    let ins = &instrumented.instructions;
    for (i, instruction) in ins.iter().enumerate() {
        let is_agent_call = instruction.mnemonic == "call";
        if is_agent_call {
            continue;
        }
        let is_sync = instruction.lock_prefix || instruction.mnemonic == "xchg";
        if is_sync {
            let before_ok = i > 0
                && ins[i - 1].mnemonic == "call"
                && ins[i - 1]
                    .memory_operand()
                    .map(|m| m.symbol == "before_sync_op")
                    .unwrap_or(false);
            let after_ok = i + 1 < ins.len()
                && ins[i + 1].mnemonic == "call"
                && ins[i + 1]
                    .memory_operand()
                    .map(|m| m.symbol == "after_sync_op")
                    .unwrap_or(false);
            if !before_ok || !after_ok {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage2::identify_sync_ops_syntactic;

    const LISTING: &str = r#"
fn spinlock_lock
lock cmpxchg %ecx, spinlock
fn spinlock_unlock
mov $0, spinlock
fn other
mov %eax, plain
add %eax, %ebx
"#;

    #[test]
    fn instrumentation_wraps_each_sync_op_with_two_calls() {
        let m = Module::parse("t", LISTING);
        let report = identify_sync_ops_syntactic(&m);
        let (instrumented, summary) = instrument_module(&m, &report);
        assert_eq!(summary.wrapped_ops, 2, "the CAS and the unlock store");
        assert!(summary.is_consistent());
        assert_eq!(instrumented.len(), m.len() + 4);
        assert!(verify_instrumentation(&instrumented));
    }

    #[test]
    fn calls_carry_the_guarded_variable() {
        let m = Module::parse("t", "lock xadd %eax, counter");
        let report = identify_sync_ops_syntactic(&m);
        let (instrumented, _) = instrument_module(&m, &report);
        let before = &instrumented.instructions[0];
        assert_eq!(before.mnemonic, "call");
        assert_eq!(before.operands[0].mem().unwrap().symbol, "before_sync_op");
        assert_eq!(before.operands[1].mem().unwrap().symbol, "counter");
    }

    #[test]
    fn uninstrumented_sync_ops_fail_verification() {
        let m = Module::parse("t", LISTING);
        assert!(
            !verify_instrumentation(&m),
            "raw module has unwrapped sync ops"
        );
    }

    #[test]
    fn modules_without_sync_ops_are_unchanged() {
        let m = Module::parse("t", "mov %eax, %ebx\nadd %eax, %ecx");
        let report = identify_sync_ops_syntactic(&m);
        let (instrumented, summary) = instrument_module(&m, &report);
        assert_eq!(summary.wrapped_ops, 0);
        assert_eq!(instrumented.len(), m.len());
        assert!(verify_instrumentation(&instrumented));
    }

    #[test]
    fn non_sync_movs_are_not_wrapped() {
        let m = Module::parse("t", LISTING);
        let report = identify_sync_ops_syntactic(&m);
        let (instrumented, _) = instrument_module(&m, &report);
        // The `mov %eax, plain` must not be wrapped: the instruction before it
        // must not be a `before_sync_op` call and the one after it must not be
        // an `after_sync_op` call.
        let plain_idx = instrumented
            .instructions
            .iter()
            .position(|i| {
                i.mnemonic == "mov"
                    && i.memory_operand()
                        .map(|m| m.symbol == "plain")
                        .unwrap_or(false)
            })
            .unwrap();
        let prev = &instrumented.instructions[plain_idx - 1];
        let is_before_call = prev.mnemonic == "call"
            && prev
                .memory_operand()
                .map(|m| m.symbol == "before_sync_op")
                .unwrap_or(false);
        assert!(
            !is_before_call,
            "plain mov must not be preceded by a before_sync_op call"
        );
        let next = &instrumented.instructions[plain_idx + 1];
        let is_after_call = next.mnemonic == "call"
            && next
                .memory_operand()
                .map(|m| m.symbol == "after_sync_op")
                .unwrap_or(false);
        assert!(
            !is_after_call,
            "plain mov must not be followed by an after_sync_op call"
        );
    }
}
