//! Dominator tree (Cooper–Harvey–Kennedy) and dominance frontiers.
//!
//! [`DomTree::build`] computes immediate dominators only: that is all the
//! verifier and the reverse-postorder passes read. The tree's children and
//! the dominance frontiers are derived from them on demand, by the code
//! that walks the tree (promotion, CSE) or places phis (promotion).

use crate::cfg::{BlockId, SsaFunc};

/// Marks a block the DFS from the entry never reached.
const UNDEF: usize = usize::MAX;

/// Dominator information for one function's CFG.
#[derive(Debug, Clone)]
pub struct DomTree {
    /// Immediate dominator of each block; `idom[entry] == entry`, and
    /// `usize::MAX` for a block unreachable from the entry.
    pub idom: Vec<BlockId>,
    /// Reverse postorder of the reachable CFG (entry first).
    pub rpo: Vec<BlockId>,
    /// Postorder number of each block (`usize::MAX` if unreachable). A
    /// dominator finishes after every block it dominates, so numbers grow
    /// strictly up each `idom` chain.
    order: Vec<usize>,
}

impl DomTree {
    /// Compute immediate dominators. Blocks unreachable from block 0 (CFG
    /// finalization prunes them; only a faulty pass leaves one) get no
    /// dominator and are missing from [`DomTree::rpo`].
    pub fn build(f: &SsaFunc) -> DomTree {
        let n = f.blocks.len();
        // Postorder DFS over successors, collected into `rpo` and reversed.
        let mut rpo: Vec<BlockId> = Vec::with_capacity(n);
        let mut order = vec![UNDEF; n];
        let mut seen = vec![false; n];
        let mut stack: Vec<(BlockId, usize)> = Vec::with_capacity(n);
        stack.push((0, 0));
        seen[0] = true;
        while let Some(&mut (b, ref mut i)) = stack.last_mut() {
            if let Some(s) = f.blocks[b].term.succs().nth(*i) {
                *i += 1;
                if !seen[s] {
                    seen[s] = true;
                    stack.push((s, 0));
                }
            } else {
                order[b] = rpo.len();
                rpo.push(b);
                stack.pop();
            }
        }
        rpo.reverse();

        let mut idom = vec![UNDEF; n];
        idom[0] = 0;
        let intersect = |idom: &[usize], mut a: BlockId, mut b: BlockId| -> BlockId {
            while a != b {
                while order[a] < order[b] {
                    a = idom[a];
                }
                while order[b] < order[a] {
                    b = idom[b];
                }
            }
            a
        };
        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                let mut new_idom = UNDEF;
                for &p in &f.blocks[b].preds {
                    if idom[p] == UNDEF {
                        continue;
                    }
                    new_idom = if new_idom == UNDEF { p } else { intersect(&idom, new_idom, p) };
                }
                if new_idom != UNDEF && idom[b] != new_idom {
                    idom[b] = new_idom;
                    changed = true;
                }
            }
        }
        DomTree { idom, rpo, order }
    }

    /// Is `b` reachable from the entry?
    pub fn reachable(&self, b: BlockId) -> bool {
        self.order[b] != UNDEF
    }

    /// Does `a` dominate `b` (reflexively)? Both must be reachable.
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        let mut b = b;
        while self.order[b] < self.order[a] {
            b = self.idom[b];
        }
        a == b
    }

    /// Children of each block in the dominator tree, in block order.
    pub fn children(&self) -> Vec<Vec<BlockId>> {
        let mut children = vec![Vec::new(); self.idom.len()];
        for (b, &d) in self.idom.iter().enumerate().skip(1) {
            if d != UNDEF {
                children[d].push(b);
            }
        }
        children
    }

    /// Dominance frontier of each block of `f`, the function this tree
    /// was built from, whose blocks must all be reachable.
    pub fn frontiers(&self, f: &SsaFunc) -> Vec<Vec<BlockId>> {
        let mut frontier = vec![Vec::new(); self.idom.len()];
        for (b, blk) in f.blocks.iter().enumerate() {
            if blk.preds.len() < 2 {
                continue;
            }
            for &p in &blk.preds {
                let mut runner = p;
                while runner != self.idom[b] {
                    if !frontier[runner].contains(&b) {
                        frontier[runner].push(b);
                    }
                    runner = self.idom[runner];
                }
            }
        }
        frontier
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use crate::cfg::SsaFunc;
    use parpat_minilang::parse_checked;

    fn build(src: &str) -> SsaFunc {
        let ir = parpat_ir::lower(&parse_checked(src).unwrap());
        SsaFunc::build(&ir, ir.entry.unwrap())
    }

    #[test]
    fn diamond_joins_at_branch_frontier() {
        let f = build("fn main() { let x = 1; if x > 0 { x = 2; } else { x = 3; } return x; }");
        let d = DomTree::build(&f);
        // Entry dominates everything.
        for b in 0..f.blocks.len() {
            assert!(d.dominates(0, b));
        }
        // The join block (two preds) is in the frontier of both arms and is
        // immediately dominated by the entry.
        let join = (0..f.blocks.len()).find(|&b| f.blocks[b].preds.len() == 2).unwrap();
        assert_eq!(d.idom[join], 0);
        let frontier = d.frontiers(&f);
        for &p in &f.blocks[join].preds {
            assert!(frontier[p].contains(&join));
            assert!(!d.dominates(p, join));
        }
    }

    #[test]
    fn loop_header_dominates_body_and_is_its_own_frontier() {
        let f = build("global a[8]; fn main() { for i in 0..8 { a[i] = i; } }");
        let d = DomTree::build(&f);
        let l = &f.loops[0];
        for &b in &l.blocks {
            assert!(d.dominates(l.header, b));
        }
        // The back edge puts the header in its own (or the latch's) frontier.
        assert!(d.frontiers(&f)[l.latch.unwrap()].contains(&l.header));
        assert!(d.dominates(l.preheader, l.header));
    }

    #[test]
    fn rpo_starts_at_entry_and_covers_all_blocks() {
        let f =
            build("fn main() { let s = 0; for i in 0..4 { if i > 1 { s = s + i; } } return s; }");
        let d = DomTree::build(&f);
        assert_eq!(d.rpo[0], 0);
        let mut seen = d.rpo.clone();
        seen.sort_unstable();
        assert_eq!(seen, (0..f.blocks.len()).collect::<Vec<_>>());
    }
}
