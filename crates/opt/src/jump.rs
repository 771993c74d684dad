//! Jump optimization: jump threading, trivial-branch collapsing,
//! unreachable-block removal, and straight-line block merging.
//!
//! The paper notes that inlined call/return instructions are "replaced
//! with unconditional jump instructions into/out of the inlined function
//! bodies" (§4.4); this pass is what removes that overhead when the
//! optimizer runs after expansion.

use impact_il::{Block, BlockId, Function, Terminator};

/// Runs all jump optimizations to a local fixpoint. Returns the number of
/// rewrites performed.
pub fn jump_optimization(func: &mut Function) -> usize {
    let mut total = 0;
    loop {
        let mut changed = 0;
        changed += thread_jumps(func);
        changed += collapse_trivial_branches(func);
        changed += remove_unreachable_blocks(func);
        changed += merge_straight_line(func);
        total += changed;
        if changed == 0 {
            return total;
        }
    }
}

/// Resolves chains of empty blocks that just jump onward: a terminator
/// targeting an empty `jump`-only block is redirected to its final
/// destination.
fn thread_jumps(func: &mut Function) -> usize {
    // forward[b] = target if block b is empty and ends in Jump(target).
    let forward: Vec<Option<BlockId>> = func
        .blocks
        .iter()
        .map(|b| match (&b.insts.is_empty(), &b.term) {
            (true, Terminator::Jump(t)) => Some(*t),
            _ => None,
        })
        .collect();
    let max_hops = func.blocks.len();
    let resolve = |mut b: BlockId| {
        // Follow the chain with a hop budget to survive empty jump cycles
        // (an empty infinite loop is valid IL).
        let mut hops = 0;
        while let Some(next) = forward[b.index()] {
            if next == b || hops > max_hops {
                break;
            }
            b = next;
            hops += 1;
        }
        b
    };
    let mut changed = 0;
    for b in &mut func.blocks {
        let before = b.term.clone();
        b.term.map_successors(resolve);
        if b.term != before {
            changed += 1;
        }
    }
    changed
}

/// `branch c, X, X` → `jump X`.
fn collapse_trivial_branches(func: &mut Function) -> usize {
    let mut changed = 0;
    for b in &mut func.blocks {
        if let Terminator::Branch {
            then_to, else_to, ..
        } = b.term
        {
            if then_to == else_to {
                b.term = Terminator::Jump(then_to);
                changed += 1;
            }
        }
    }
    changed
}

/// Deletes blocks unreachable from the entry and renumbers the rest.
fn remove_unreachable_blocks(func: &mut Function) -> usize {
    let n = func.blocks.len();
    let mut reachable = vec![false; n];
    let mut work = vec![0usize];
    reachable[0] = true;
    while let Some(v) = work.pop() {
        func.blocks[v].term.for_each_successor(|s| {
            if !reachable[s.index()] {
                reachable[s.index()] = true;
                work.push(s.index());
            }
        });
    }
    if reachable.iter().all(|&r| r) {
        return 0;
    }
    // remap[old index] = new id; only reachable blocks are looked up.
    let mut remap = vec![BlockId(0); n];
    let mut kept = Vec::with_capacity(n);
    for (i, block) in std::mem::take(&mut func.blocks).into_iter().enumerate() {
        if reachable[i] {
            remap[i] = BlockId::from_index(kept.len());
            kept.push(block);
        }
    }
    let removed = n - kept.len();
    func.blocks = kept;
    for b in &mut func.blocks {
        b.term.map_successors(|t| remap[t.index()]);
    }
    removed
}

/// Merges `A: ...; jump B` with `B` when `B`'s only predecessor is `A`
/// (and `B` is neither `A` nor the entry block), splicing `B`'s
/// instructions into `A`. Reports two changes per merge: the splice and
/// the removal of the emptied `B`.
///
/// One sweep in block order finds every merge: a merge moves `B`'s
/// out-edges to `A`, so no other block's predecessor count changes, and
/// only `A` itself can become mergeable again.
fn merge_straight_line(func: &mut Function) -> usize {
    let mut preds = vec![0u32; func.blocks.len()];
    for b in &func.blocks {
        b.term.for_each_successor(|s| preds[s.index()] += 1);
    }
    let mut merges = 0;
    for a in 0..func.blocks.len() {
        while let Terminator::Jump(b) = func.blocks[a].term {
            let bi = b.index();
            if bi == a || bi == 0 || preds[bi] != 1 {
                break;
            }
            // B keeps no edges, so the final cleanup removes it.
            let b_block =
                std::mem::replace(&mut func.blocks[bi], Block::new(Terminator::Return(None)));
            func.blocks[a].insts.extend(b_block.insts);
            func.blocks[a].term = b_block.term;
            merges += 1;
        }
    }
    if merges == 0 {
        return 0;
    }
    merges + remove_unreachable_blocks(func)
}

#[cfg(test)]
mod tests {
    use super::*;
    use impact_il::{FunctionBuilder, Inst, Reg};

    #[test]
    fn threads_empty_jump_chain() {
        let mut fb = FunctionBuilder::new("t", 0);
        let hop1 = fb.new_block();
        let hop2 = fb.new_block();
        let dest = fb.new_block();
        fb.terminate(Terminator::Jump(hop1));
        fb.switch_to(hop1);
        fb.terminate(Terminator::Jump(hop2));
        fb.switch_to(hop2);
        fb.terminate(Terminator::Jump(dest));
        fb.switch_to(dest);
        let v = fb.const_(9);
        fb.terminate(Terminator::Return(Some(v)));
        let mut f = fb.finish();
        let changed = jump_optimization(&mut f);
        assert!(changed > 0);
        // Everything collapses into a single block.
        assert_eq!(f.blocks.len(), 1);
        assert!(matches!(f.blocks[0].term, Terminator::Return(Some(_))));
    }

    #[test]
    fn collapses_branch_with_equal_targets() {
        let mut fb = FunctionBuilder::new("t", 1);
        let t = fb.new_block();
        fb.terminate(Terminator::Branch {
            cond: Reg(0),
            then_to: t,
            else_to: t,
        });
        fb.switch_to(t);
        fb.terminate(Terminator::Return(None));
        let mut f = fb.finish();
        jump_optimization(&mut f);
        assert!(f
            .blocks
            .iter()
            .all(|b| !matches!(b.term, Terminator::Branch { .. })));
    }

    #[test]
    fn removes_unreachable_blocks() {
        let mut fb = FunctionBuilder::new("t", 0);
        let dead = fb.new_block();
        fb.terminate(Terminator::Return(None));
        fb.switch_to(dead);
        let v = fb.const_(1);
        fb.terminate(Terminator::Return(Some(v)));
        let mut f = fb.finish();
        assert_eq!(f.blocks.len(), 2);
        jump_optimization(&mut f);
        assert_eq!(f.blocks.len(), 1);
    }

    #[test]
    fn merges_single_pred_chains_with_instructions() {
        let mut fb = FunctionBuilder::new("t", 0);
        let second = fb.new_block();
        let a = fb.const_(1);
        fb.terminate(Terminator::Jump(second));
        fb.switch_to(second);
        let b = fb.const_(2);
        fb.push(Inst::Bin {
            op: impact_il::BinOp::Add,
            dst: b,
            lhs: a,
            rhs: b,
        });
        fb.terminate(Terminator::Return(Some(b)));
        let mut f = fb.finish();
        jump_optimization(&mut f);
        assert_eq!(f.blocks.len(), 1);
        assert_eq!(f.blocks[0].insts.len(), 3);
    }

    #[test]
    fn keeps_empty_infinite_loop_alive() {
        let mut fb = FunctionBuilder::new("t", 0);
        let spin = fb.new_block();
        fb.terminate(Terminator::Jump(spin));
        fb.switch_to(spin);
        fb.terminate(Terminator::Jump(spin));
        let mut f = fb.finish();
        jump_optimization(&mut f);
        // Must not crash or delete the loop; the function still has a
        // block jumping to itself.
        assert!(f
            .blocks
            .iter()
            .enumerate()
            .any(|(i, b)| b.term == Terminator::Jump(BlockId::from_index(i))));
    }

    #[test]
    fn does_not_merge_shared_successor() {
        // Two predecessors both jump to the same block: no merge.
        let mut fb = FunctionBuilder::new("t", 1);
        let left = fb.new_block();
        let right = fb.new_block();
        let join = fb.new_block();
        fb.terminate(Terminator::Branch {
            cond: Reg(0),
            then_to: left,
            else_to: right,
        });
        fb.switch_to(left);
        let a = fb.const_(1);
        fb.terminate(Terminator::Jump(join));
        fb.switch_to(right);
        let b = fb.const_(2);
        fb.terminate(Terminator::Jump(join));
        fb.switch_to(join);
        let c = fb.bin(impact_il::BinOp::Add, a, b);
        fb.terminate(Terminator::Return(Some(c)));
        let mut f = fb.finish();
        jump_optimization(&mut f);
        // join must still exist separately (4 blocks stay 4).
        assert_eq!(f.blocks.len(), 4);
    }

    #[test]
    fn never_merges_the_entry_block_into_a_predecessor() {
        // The entry is a loop header whose one predecessor is the loop
        // body. Splicing the entry into the body would leave block 0
        // empty and make the function return at once.
        let mut fb = FunctionBuilder::new("t", 1);
        let body = fb.new_block();
        let exit = fb.new_block();
        fb.terminate(Terminator::Branch {
            cond: Reg(0),
            then_to: body,
            else_to: exit,
        });
        fb.switch_to(body);
        let one = fb.const_(1);
        fb.push(Inst::Bin {
            op: impact_il::BinOp::Sub,
            dst: Reg(0),
            lhs: Reg(0),
            rhs: one,
        });
        fb.terminate(Terminator::Jump(BlockId(0)));
        fb.switch_to(exit);
        fb.terminate(Terminator::Return(Some(Reg(0))));
        let mut f = fb.finish();
        let before = f.clone();
        assert_eq!(jump_optimization(&mut f), 0);
        assert_eq!(f, before);
    }
}
