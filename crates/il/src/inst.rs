//! IL instructions, operators, and block terminators.
//!
//! The IL is a classic (non-SSA) three-address code, as used by compiler
//! mid-ends of the paper's era: each function owns a set of virtual
//! registers, every register holds a 64-bit integer, and memory is accessed
//! through explicit sized loads and stores.

use crate::ids::{BlockId, CallSiteId, ExternId, FuncId, GlobalId, Reg, SlotId};

/// Width of a memory access in bytes.
///
/// The front end maps C types onto widths: `char` → [`Width::W1`],
/// `short` → [`Width::W2`], `int` → [`Width::W4`], `long` and pointers →
/// [`Width::W8`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Width {
    /// One byte.
    W1,
    /// Two bytes.
    W2,
    /// Four bytes.
    W4,
    /// Eight bytes.
    W8,
}

impl Width {
    /// Number of bytes covered by this width.
    #[inline]
    pub fn bytes(self) -> u64 {
        match self {
            Width::W1 => 1,
            Width::W2 => 2,
            Width::W4 => 4,
            Width::W8 => 8,
        }
    }

    /// Builds a width from a byte count.
    ///
    /// Returns `None` unless `bytes` is 1, 2, 4, or 8.
    pub fn from_bytes(bytes: u64) -> Option<Self> {
        match bytes {
            1 => Some(Width::W1),
            2 => Some(Width::W2),
            4 => Some(Width::W4),
            8 => Some(Width::W8),
            _ => None,
        }
    }
}

/// Unary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Two's-complement negation.
    Neg,
    /// Bitwise complement (`~`).
    BitNot,
    /// Logical negation: yields 1 if the operand is 0, otherwise 0.
    LogNot,
}

/// Binary arithmetic and bitwise operators.
///
/// Division and remainder come in signed and unsigned flavours because the
/// front end lowers C's unsigned arithmetic onto the same 64-bit registers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Signed division (traps on division by zero).
    Div,
    /// Signed remainder (traps on division by zero).
    Rem,
    /// Unsigned division.
    UDiv,
    /// Unsigned remainder.
    URem,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Left shift (shift count masked to 0..=63).
    Shl,
    /// Arithmetic (sign-propagating) right shift.
    Shr,
    /// Logical (zero-filling) right shift.
    UShr,
}

/// Comparison operators; the result register receives 0 or 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    SLt,
    /// Signed less-or-equal.
    SLe,
    /// Signed greater-than.
    SGt,
    /// Signed greater-or-equal.
    SGe,
    /// Unsigned less-than.
    ULt,
    /// Unsigned less-or-equal.
    ULe,
    /// Unsigned greater-than.
    UGt,
    /// Unsigned greater-or-equal.
    UGe,
}

/// The target of a call instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Callee {
    /// Direct call to a user function whose body is in the module.
    Func(FuncId),
    /// Call to an external function — the body is unavailable, so the call
    /// graph routes this arc through the `$$$` node (paper §3.2).
    Ext(ExternId),
    /// Indirect call through a function pointer held in a register — routed
    /// through the `###` node (paper §3.2).
    Reg(Reg),
}

/// A single three-address IL instruction.
///
/// Every instruction counts as one "intermediate instruction" (IL) in the
/// dynamic counts reported by the profiler, matching the paper's
/// measurement unit (§4.1).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Inst {
    /// `dst = value`.
    Const {
        /// Destination register.
        dst: Reg,
        /// Immediate value.
        value: i64,
    },
    /// `dst = src`.
    Mov {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// `dst = op src`.
    Un {
        /// Operator.
        op: UnOp,
        /// Destination register.
        dst: Reg,
        /// Operand register.
        src: Reg,
    },
    /// `dst = lhs op rhs`.
    Bin {
        /// Operator.
        op: BinOp,
        /// Destination register.
        dst: Reg,
        /// Left operand.
        lhs: Reg,
        /// Right operand.
        rhs: Reg,
    },
    /// `dst = lhs op rhs` for a comparison; `dst` receives 0 or 1.
    Cmp {
        /// Comparison operator.
        op: CmpOp,
        /// Destination register.
        dst: Reg,
        /// Left operand.
        lhs: Reg,
        /// Right operand.
        rhs: Reg,
    },
    /// `dst = &global`.
    AddrOfGlobal {
        /// Destination register.
        dst: Reg,
        /// Global whose address is taken.
        global: GlobalId,
    },
    /// `dst = &slot` — address of a stack slot in the current frame.
    AddrOfSlot {
        /// Destination register.
        dst: Reg,
        /// Frame slot whose address is taken.
        slot: SlotId,
    },
    /// `dst = &func` — materializes a function pointer.
    AddrOfFunc {
        /// Destination register.
        dst: Reg,
        /// Function whose address is taken.
        func: FuncId,
    },
    /// `dst = extend(truncate(src, width))` — truncates `src` to `width`
    /// bytes and sign- or zero-extends back to 64 bits. Lowered from C
    /// casts and stores into narrow register-allocated variables.
    Ext {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
        /// Width to truncate to.
        width: Width,
        /// Whether to sign-extend (`true`) or zero-extend (`false`).
        signed: bool,
    },
    /// `dst = *(width*)addr`, sign- or zero-extended to 64 bits.
    Load {
        /// Destination register.
        dst: Reg,
        /// Address register.
        addr: Reg,
        /// Access width.
        width: Width,
        /// Whether to sign-extend (`true`) or zero-extend (`false`).
        signed: bool,
    },
    /// `*(width*)addr = src` (truncating to `width`).
    Store {
        /// Address register.
        addr: Reg,
        /// Value register.
        src: Reg,
        /// Access width.
        width: Width,
    },
    /// `dst = callee(args...)`.
    ///
    /// Each call instruction carries a module-unique [`CallSiteId`]; the
    /// weighted call graph keys its arcs on this id (§2.2).
    Call {
        /// Unique static call-site identifier.
        site: CallSiteId,
        /// Call target.
        callee: Callee,
        /// Argument registers, in order.
        args: Vec<Reg>,
        /// Register receiving the return value, if used.
        dst: Option<Reg>,
    },
}

impl Inst {
    /// The register written by this instruction, if any.
    pub fn def(&self) -> Option<Reg> {
        match self {
            Inst::Const { dst, .. }
            | Inst::Mov { dst, .. }
            | Inst::Un { dst, .. }
            | Inst::Bin { dst, .. }
            | Inst::Cmp { dst, .. }
            | Inst::AddrOfGlobal { dst, .. }
            | Inst::AddrOfSlot { dst, .. }
            | Inst::AddrOfFunc { dst, .. }
            | Inst::Ext { dst, .. }
            | Inst::Load { dst, .. } => Some(*dst),
            Inst::Store { .. } => None,
            Inst::Call { dst, .. } => *dst,
        }
    }

    /// Invokes `f` for every register read by this instruction.
    pub fn for_each_use(&self, mut f: impl FnMut(Reg)) {
        match self {
            Inst::Const { .. }
            | Inst::AddrOfGlobal { .. }
            | Inst::AddrOfSlot { .. }
            | Inst::AddrOfFunc { .. } => {}
            Inst::Mov { src, .. } | Inst::Un { src, .. } | Inst::Ext { src, .. } => f(*src),
            Inst::Bin { lhs, rhs, .. } | Inst::Cmp { lhs, rhs, .. } => {
                f(*lhs);
                f(*rhs);
            }
            Inst::Load { addr, .. } => f(*addr),
            Inst::Store { addr, src, .. } => {
                f(*addr);
                f(*src);
            }
            Inst::Call { callee, args, .. } => {
                if let Callee::Reg(r) = callee {
                    f(*r);
                }
                for a in args {
                    f(*a);
                }
            }
        }
    }

    /// Like [`Inst::for_each_use`], but `f` may rewrite each register.
    pub fn for_each_use_mut(&mut self, mut f: impl FnMut(&mut Reg)) {
        match self {
            Inst::Const { .. }
            | Inst::AddrOfGlobal { .. }
            | Inst::AddrOfSlot { .. }
            | Inst::AddrOfFunc { .. } => {}
            Inst::Mov { src, .. } | Inst::Un { src, .. } | Inst::Ext { src, .. } => f(src),
            Inst::Bin { lhs, rhs, .. } | Inst::Cmp { lhs, rhs, .. } => {
                f(lhs);
                f(rhs);
            }
            Inst::Load { addr, .. } => f(addr),
            Inst::Store { addr, src, .. } => {
                f(addr);
                f(src);
            }
            Inst::Call { callee, args, .. } => {
                if let Callee::Reg(r) = callee {
                    f(r);
                }
                for a in args {
                    f(a);
                }
            }
        }
    }

    /// Whether this instruction has an effect beyond writing its
    /// destination register (memory writes, calls).
    ///
    /// Loads are treated as effect-free: the VM traps on wild addresses,
    /// but the IL's dead-code elimination may delete a load whose result
    /// is unused, exactly as IMPACT-I's optimizer would.
    pub fn has_side_effect(&self) -> bool {
        matches!(self, Inst::Store { .. } | Inst::Call { .. })
    }

    /// Whether this is a call instruction.
    pub fn is_call(&self) -> bool {
        matches!(self, Inst::Call { .. })
    }
}

/// Block terminator: every basic block ends in exactly one of these.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Terminator {
    /// Unconditional jump.
    Jump(BlockId),
    /// Two-way conditional branch on `cond != 0`.
    Branch {
        /// Condition register.
        cond: Reg,
        /// Target when `cond != 0`.
        then_to: BlockId,
        /// Target when `cond == 0`.
        else_to: BlockId,
    },
    /// Return from the function, optionally with a value.
    Return(Option<Reg>),
    /// Stops the whole program (reached only via generated shutdown stubs).
    Halt,
}

impl Terminator {
    /// Invokes `f` for every successor block of this terminator.
    pub fn for_each_successor(&self, mut f: impl FnMut(BlockId)) {
        match self {
            Terminator::Jump(b) => f(*b),
            Terminator::Branch {
                then_to, else_to, ..
            } => {
                f(*then_to);
                f(*else_to);
            }
            Terminator::Return(_) | Terminator::Halt => {}
        }
    }

    /// Rewrites every successor block id through `f`.
    pub fn map_successors(&mut self, mut f: impl FnMut(BlockId) -> BlockId) {
        match self {
            Terminator::Jump(b) => *b = f(*b),
            Terminator::Branch {
                then_to, else_to, ..
            } => {
                *then_to = f(*then_to);
                *else_to = f(*else_to);
            }
            Terminator::Return(_) | Terminator::Halt => {}
        }
    }

    /// Whether this terminator transfers control within the function
    /// (a jump or branch), as opposed to leaving it.
    ///
    /// The profiler counts executed intra-function transfers as "control
    /// transfers other than function call/return" (Table 1's `control`
    /// column).
    pub fn is_control_transfer(&self) -> bool {
        matches!(self, Terminator::Jump(_) | Terminator::Branch { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_round_trips_through_bytes() {
        for w in [Width::W1, Width::W2, Width::W4, Width::W8] {
            assert_eq!(Width::from_bytes(w.bytes()), Some(w));
        }
        assert_eq!(Width::from_bytes(3), None);
        assert_eq!(Width::from_bytes(16), None);
    }

    #[test]
    fn def_and_uses_of_bin() {
        let i = Inst::Bin {
            op: BinOp::Add,
            dst: Reg(2),
            lhs: Reg(0),
            rhs: Reg(1),
        };
        assert_eq!(i.def(), Some(Reg(2)));
        let mut uses = Vec::new();
        i.for_each_use(|r| uses.push(r));
        assert_eq!(uses, vec![Reg(0), Reg(1)]);
        assert!(!i.has_side_effect());
    }

    #[test]
    fn store_has_no_def_and_two_uses() {
        let i = Inst::Store {
            addr: Reg(4),
            src: Reg(5),
            width: Width::W4,
        };
        assert_eq!(i.def(), None);
        let mut uses = Vec::new();
        i.for_each_use(|r| uses.push(r));
        assert_eq!(uses, vec![Reg(4), Reg(5)]);
        assert!(i.has_side_effect());
    }

    #[test]
    fn indirect_call_uses_callee_register() {
        let i = Inst::Call {
            site: CallSiteId(0),
            callee: Callee::Reg(Reg(9)),
            args: vec![Reg(1)],
            dst: Some(Reg(2)),
        };
        assert!(i.is_call());
        assert!(i.has_side_effect());
        assert_eq!(i.def(), Some(Reg(2)));
        let mut uses = Vec::new();
        i.for_each_use(|r| uses.push(r));
        assert_eq!(uses, vec![Reg(9), Reg(1)]);
    }

    #[test]
    fn terminator_successors() {
        let mut succs = Vec::new();
        Terminator::Branch {
            cond: Reg(0),
            then_to: BlockId(1),
            else_to: BlockId(2),
        }
        .for_each_successor(|b| succs.push(b));
        assert_eq!(succs, vec![BlockId(1), BlockId(2)]);

        succs.clear();
        Terminator::Return(None).for_each_successor(|b| succs.push(b));
        assert!(succs.is_empty());
    }

    #[test]
    fn map_successors_rewrites_targets() {
        let mut t = Terminator::Jump(BlockId(3));
        t.map_successors(|b| BlockId(b.0 + 10));
        assert_eq!(t, Terminator::Jump(BlockId(13)));
    }

    #[test]
    fn control_transfer_classification() {
        assert!(Terminator::Jump(BlockId(0)).is_control_transfer());
        assert!(!Terminator::Return(None).is_control_transfer());
        assert!(!Terminator::Halt.is_control_transfer());
    }
}
