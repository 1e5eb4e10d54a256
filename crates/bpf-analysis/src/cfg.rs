//! Control-flow graph construction and structural queries.

use bpf_isa::Insn;
use std::fmt;

/// Errors produced while building a CFG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CfgError {
    /// A jump targets an instruction index outside the program.
    JumpOutOfRange {
        /// Index of the jump.
        at: usize,
        /// Invalid target.
        target: i64,
    },
    /// The program is empty.
    Empty,
}

impl fmt::Display for CfgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CfgError::JumpOutOfRange { at, target } => {
                write!(f, "jump at {at} targets out-of-range index {target}")
            }
            CfgError::Empty => write!(f, "cannot build a CFG for an empty program"),
        }
    }
}

impl std::error::Error for CfgError {}

/// A basic block: a maximal straight-line run of instructions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BasicBlock {
    /// Index of the first instruction in the block.
    pub start: usize,
    /// One past the index of the last instruction in the block.
    pub end: usize,
    /// Indices of successor blocks. For a conditional jump the first entry is
    /// the fall-through successor and the second the taken successor.
    pub succs: Vec<usize>,
    /// Indices of predecessor blocks.
    pub preds: Vec<usize>,
}

impl BasicBlock {
    /// Instruction index range of the block.
    pub fn range(&self) -> std::ops::Range<usize> {
        self.start..self.end
    }

    /// Number of instructions in the block.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the block contains no instructions (never true for built CFGs).
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// A control-flow graph over basic blocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cfg {
    /// The blocks, ordered by their start instruction index. Block 0 is the
    /// entry block.
    pub blocks: Vec<BasicBlock>,
    /// For every instruction index, the block that contains it.
    pub block_of_insn: Vec<usize>,
}

impl Cfg {
    /// Build the CFG of an instruction sequence.
    pub fn build(insns: &[Insn]) -> Result<Cfg, CfgError> {
        if insns.is_empty() {
            return Err(CfgError::Empty);
        }
        // 1. Find leaders: instruction 0, jump targets, and instructions
        //    following branches/exits.
        let mut is_leader = vec![false; insns.len()];
        is_leader[0] = true;
        for (idx, insn) in insns.iter().enumerate() {
            if let Some(target) = insn.jump_target(idx) {
                if target < 0 || target as usize >= insns.len() {
                    return Err(CfgError::JumpOutOfRange { at: idx, target });
                }
                is_leader[target as usize] = true;
                if idx + 1 < insns.len() {
                    is_leader[idx + 1] = true;
                }
            }
            if matches!(insn, Insn::Exit) && idx + 1 < insns.len() {
                is_leader[idx + 1] = true;
            }
        }

        // 2. Slice into blocks.
        let mut blocks = Vec::new();
        let mut block_of_insn = vec![0usize; insns.len()];
        let mut start = 0usize;
        for idx in 1..=insns.len() {
            if idx == insns.len() || is_leader[idx] {
                let block_idx = blocks.len();
                for slot in &mut block_of_insn[start..idx] {
                    *slot = block_idx;
                }
                blocks.push(BasicBlock {
                    start,
                    end: idx,
                    succs: Vec::new(),
                    preds: Vec::new(),
                });
                start = idx;
            }
        }

        // 3. Wire up edges.
        let mut edges: Vec<(usize, usize)> = Vec::new();
        for (bi, block) in blocks.iter().enumerate() {
            let last_idx = block.end - 1;
            let last = &insns[last_idx];
            match last {
                Insn::Exit => {}
                Insn::Ja { .. } => {
                    let target = last.jump_target(last_idx).expect("ja has target") as usize;
                    edges.push((bi, block_of_insn[target]));
                }
                Insn::Jmp { .. } | Insn::Jmp32 { .. } => {
                    // Fall-through first, then taken.
                    if block.end < insns.len() {
                        edges.push((bi, block_of_insn[block.end]));
                    }
                    let target = last.jump_target(last_idx).expect("jmp has target") as usize;
                    edges.push((bi, block_of_insn[target]));
                }
                _ => {
                    if block.end < insns.len() {
                        edges.push((bi, block_of_insn[block.end]));
                    }
                }
            }
        }
        for (from, to) in edges {
            if !blocks[from].succs.contains(&to) {
                blocks[from].succs.push(to);
            }
            if !blocks[to].preds.contains(&from) {
                blocks[to].preds.push(from);
            }
        }

        Ok(Cfg {
            blocks,
            block_of_insn,
        })
    }

    /// Blocks reachable from the entry block.
    pub fn reachable(&self) -> Vec<bool> {
        let mut seen = vec![false; self.blocks.len()];
        let mut stack = vec![0usize];
        while let Some(b) = stack.pop() {
            if seen[b] {
                continue;
            }
            seen[b] = true;
            for &s in &self.blocks[b].succs {
                if !seen[s] {
                    stack.push(s);
                }
            }
        }
        seen
    }

    /// Whether the graph contains a cycle reachable from the entry
    /// (equivalently: whether the program can loop).
    pub fn has_loop(&self) -> bool {
        // Iterative DFS with colors: 0 = white, 1 = gray (on stack), 2 = black.
        let mut color = vec![0u8; self.blocks.len()];
        let mut stack: Vec<(usize, usize)> = vec![(0, 0)];
        color[0] = 1;
        while let Some(&mut (node, ref mut next)) = stack.last_mut() {
            if *next < self.blocks[node].succs.len() {
                let succ = self.blocks[node].succs[*next];
                *next += 1;
                match color[succ] {
                    0 => {
                        color[succ] = 1;
                        stack.push((succ, 0));
                    }
                    1 => return true,
                    _ => {}
                }
            } else {
                color[node] = 2;
                stack.pop();
            }
        }
        false
    }

    /// A topological order of the reachable blocks. Returns `None` if the
    /// graph has a cycle.
    pub fn topo_order(&self) -> Option<Vec<usize>> {
        if self.has_loop() {
            return None;
        }
        let reachable = self.reachable();
        let mut indeg = vec![0usize; self.blocks.len()];
        for (b, block) in self.blocks.iter().enumerate() {
            if !reachable[b] {
                continue;
            }
            for &s in &block.succs {
                if reachable[s] {
                    indeg[s] += 1;
                }
            }
        }
        let mut order = Vec::new();
        let mut ready: Vec<usize> = (0..self.blocks.len())
            .filter(|&b| reachable[b] && indeg[b] == 0)
            .collect();
        // Keep the order deterministic: prefer lower block indices first.
        ready.sort_unstable_by(|a, b| b.cmp(a));
        while let Some(b) = ready.pop() {
            order.push(b);
            for &s in &self.blocks[b].succs {
                if reachable[s] {
                    indeg[s] -= 1;
                    if indeg[s] == 0 {
                        ready.push(s);
                    }
                }
            }
            ready.sort_unstable_by(|a, b| b.cmp(a));
        }
        Some(order)
    }

    /// Length (in blocks) of the longest acyclic path from the entry to any
    /// exit — the "longest path" metric reported in the paper's Table 1.
    pub fn longest_path_blocks(&self) -> usize {
        match self.topo_order() {
            Some(order) => {
                let mut dist = vec![0usize; self.blocks.len()];
                let reachable = self.reachable();
                for &b in &order {
                    if !reachable[b] {
                        continue;
                    }
                    let here = dist[b].max(1);
                    dist[b] = here;
                    for &s in &self.blocks[b].succs {
                        dist[s] = dist[s].max(here + 1);
                    }
                }
                dist.into_iter().max().unwrap_or(0)
            }
            None => self.blocks.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpf_isa::{asm, JmpOp, Reg};

    fn build(text: &str) -> Cfg {
        Cfg::build(&asm::assemble(text).unwrap()).unwrap()
    }

    #[test]
    fn straight_line_is_one_block() {
        let cfg = build("mov64 r0, 0\nadd64 r0, 1\nexit");
        assert_eq!(cfg.blocks.len(), 1);
        assert_eq!(cfg.blocks[0].range(), 0..3);
        assert!(cfg.blocks[0].succs.is_empty());
        assert!(!cfg.has_loop());
        assert_eq!(cfg.topo_order(), Some(vec![0]));
        assert_eq!(cfg.longest_path_blocks(), 1);
    }

    #[test]
    fn diamond_shape() {
        // if r1 == 0 { r0 = 1 } else { r0 = 2 }; exit
        let text = r"
            jeq r1, 0, +2
            mov64 r0, 2
            ja +1
            mov64 r0, 1
            exit
        ";
        let cfg = build(text);
        assert_eq!(cfg.blocks.len(), 4);
        // Block 0: the branch; succs = fall-through block then taken block.
        assert_eq!(cfg.blocks[0].succs, vec![1, 2]);
        assert_eq!(cfg.blocks[1].succs, vec![3]);
        assert_eq!(cfg.blocks[2].succs, vec![3]);
        assert_eq!(cfg.blocks[3].preds.len(), 2);
        assert!(!cfg.has_loop());
        assert_eq!(cfg.topo_order(), Some(vec![0, 1, 2, 3]));
        assert_eq!(cfg.longest_path_blocks(), 3);
    }

    #[test]
    fn loop_detection() {
        let insns = vec![
            bpf_isa::Insn::mov64_imm(Reg::R0, 0),
            bpf_isa::Insn::jmp_imm(JmpOp::Lt, Reg::R0, 10, -1),
            bpf_isa::Insn::Exit,
        ];
        let cfg = Cfg::build(&insns).unwrap();
        assert!(cfg.has_loop());
        assert_eq!(cfg.topo_order(), None);
    }

    #[test]
    fn unreachable_block_detected() {
        let text = r"
            mov64 r0, 0
            exit
            mov64 r0, 1
            exit
        ";
        let cfg = build(text);
        assert_eq!(cfg.blocks.len(), 2);
        let reach = cfg.reachable();
        assert!(reach[0]);
        assert!(!reach[1]);
    }

    #[test]
    fn out_of_range_jump_is_error() {
        let insns = vec![bpf_isa::Insn::Ja { off: 5 }, bpf_isa::Insn::Exit];
        assert!(matches!(
            Cfg::build(&insns),
            Err(CfgError::JumpOutOfRange { at: 0, target: 6 })
        ));
        assert!(matches!(Cfg::build(&[]), Err(CfgError::Empty)));
    }

    #[test]
    fn block_of_insn_mapping() {
        let text = "jeq r1, 0, +1\nmov64 r0, 2\nexit";
        let cfg = build(text);
        assert_eq!(cfg.block_of_insn, vec![0, 1, 2]);
    }

    #[test]
    fn nested_branches_topo_and_longest_path() {
        let text = r"
            jeq r1, 0, +4
            jeq r2, 0, +1
            mov64 r0, 1
            mov64 r0, 2
            ja +1
            mov64 r0, 3
            exit
        ";
        let cfg = build(text);
        assert!(!cfg.has_loop());
        let order = cfg.topo_order().unwrap();
        assert_eq!(order.len(), cfg.blocks.len());
        // A topological order must list predecessors before successors.
        let pos: Vec<usize> = {
            let mut p = vec![0; cfg.blocks.len()];
            for (i, &b) in order.iter().enumerate() {
                p[b] = i;
            }
            p
        };
        for (b, block) in cfg.blocks.iter().enumerate() {
            for &s in &block.succs {
                assert!(pos[b] < pos[s], "block {b} must precede its successor {s}");
            }
        }
        assert!(cfg.longest_path_blocks() >= 4);
    }
}
