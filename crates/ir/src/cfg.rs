//! Control-flow-graph utilities over lowered functions.
//!
//! The liveness analysis of the paper traverses basic blocks "reversely"
//! (Fig. 4); these helpers provide predecessor maps, postorder, and reverse
//! postorder so backward analyses visit blocks in an order that converges
//! quickly.

use crate::ir::{
    BlockId,
    Function, //
};

/// Predecessor/successor maps for a function's CFG.
#[derive(Clone, Debug)]
pub struct Cfg {
    /// `succs[b]` = successor blocks of `b`.
    pub succs: Vec<Vec<BlockId>>,
    /// `preds[b]` = predecessor blocks of `b`.
    pub preds: Vec<Vec<BlockId>>,
    /// The entry block.
    pub entry: BlockId,
}

impl Cfg {
    /// Builds the CFG of `f`.
    pub fn new(f: &Function) -> Self {
        let n = f.blocks.len();
        let mut succs = vec![Vec::new(); n];
        let mut preds = vec![Vec::new(); n];
        for (id, bb) in f.iter_blocks() {
            let ss = bb.term.successors();
            for s in &ss {
                preds[s.0 as usize].push(id);
            }
            succs[id.0 as usize] = ss;
        }
        Self {
            succs,
            preds,
            entry: f.entry,
        }
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.succs.len()
    }

    /// Whether the CFG has no blocks (never true for lowered functions).
    pub fn is_empty(&self) -> bool {
        self.succs.is_empty()
    }

    /// Successors of `b`.
    pub fn succs(&self, b: BlockId) -> &[BlockId] {
        &self.succs[b.0 as usize]
    }

    /// Predecessors of `b`.
    pub fn preds(&self, b: BlockId) -> &[BlockId] {
        &self.preds[b.0 as usize]
    }

    /// Blocks in postorder from the entry (unreachable blocks appended last).
    pub fn postorder(&self) -> Vec<BlockId> {
        let mut seen = vec![false; self.len()];
        let mut out = Vec::with_capacity(self.len());
        self.po_visit(self.entry, &mut seen, &mut out);
        // Unreachable blocks still contain instructions (e.g. code after an
        // unconditional return); append them so analyses see every block.
        for i in 0..self.len() {
            if !seen[i] {
                self.po_visit(BlockId(i as u32), &mut seen, &mut out);
            }
        }
        out
    }

    fn po_visit(&self, b: BlockId, seen: &mut [bool], out: &mut Vec<BlockId>) {
        // Iterative DFS to avoid recursion depth limits on long CFG chains.
        let mut stack = vec![(b, 0usize)];
        if seen[b.0 as usize] {
            return;
        }
        seen[b.0 as usize] = true;
        while let Some((node, child)) = stack.pop() {
            let succs = self.succs(node);
            if child < succs.len() {
                stack.push((node, child + 1));
                let s = succs[child];
                if !seen[s.0 as usize] {
                    seen[s.0 as usize] = true;
                    stack.push((s, 0));
                }
            } else {
                out.push(node);
            }
        }
    }

    /// Blocks in reverse postorder (good order for forward analyses).
    pub fn reverse_postorder(&self) -> Vec<BlockId> {
        let mut po = self.postorder();
        po.reverse();
        po
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        parser::parse,
        program::Program,
        span::FileId, //
    };

    fn lower(src: &str) -> Function {
        let m = parse(FileId(0), src).unwrap();
        let prog = Program::from_modules(vec![("test.c".into(), m)], &[]).unwrap();
        prog.funcs.into_iter().next().unwrap()
    }

    #[test]
    fn straight_line_has_single_block_path() {
        let f = lower("int f(int x) { int y = x; return y; }");
        let cfg = Cfg::new(&f);
        assert_eq!(cfg.preds(f.entry).len(), 0);
    }

    #[test]
    fn if_else_makes_diamond() {
        let f = lower("int f(int x) { int y = 0; if (x) { y = 1; } else { y = 2; } return y; }");
        let cfg = Cfg::new(&f);
        // Entry + then + else + merge (+ possibly a trailing dead block).
        let diamond_merge = cfg.preds.iter().filter(|p| p.len() == 2).count();
        assert!(diamond_merge >= 1, "expected a merge block with 2 preds");
    }

    #[test]
    fn while_loop_has_back_edge() {
        let f = lower("void f(int n) { int i = 0; while (i < n) { i = i + 1; } }");
        let cfg = Cfg::new(&f);
        // Some block must have a successor with a smaller id (the back edge).
        let has_back_edge = (0..cfg.len()).any(|b| {
            cfg.succs(BlockId(b as u32))
                .iter()
                .any(|s| (s.0 as usize) < b)
        });
        assert!(has_back_edge);
    }

    #[test]
    fn postorder_covers_every_block() {
        let f = lower(
            "int f(int x) { if (x) { return 1; } for (int i = 0; i < x; i = i + 1) { g(i); } \
             return 0; }",
        );
        let cfg = Cfg::new(&f);
        let po = cfg.postorder();
        assert_eq!(po.len(), cfg.len());
        let mut sorted: Vec<u32> = po.iter().map(|b| b.0).collect();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..cfg.len() as u32).collect::<Vec<_>>());
    }

    #[test]
    fn reverse_postorder_starts_at_entry() {
        let f = lower("void f(int x) { if (x) { g(); } h(); }");
        let cfg = Cfg::new(&f);
        assert_eq!(cfg.reverse_postorder()[0], f.entry);
    }
}
