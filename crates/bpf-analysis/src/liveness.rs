//! Register and stack-slot liveness analysis.
//!
//! Liveness is a backward may-analysis over the CFG. K2 uses it in three
//! places: dead-code elimination of synthesized candidates, the
//! pre/postconditions of window-based verification ("variables live into /
//! out of the window", §5.IV), and the proposal generator's knowledge of
//! which registers are safe to overwrite.

use crate::cfg::Cfg;
use crate::types::{AbsVal, MemRegion, Types};
use bpf_isa::{HelperId, Insn, MapDef, MemSize, Reg, STACK_SIZE};

/// A small bit-set of registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct RegSet(u16);

impl RegSet {
    /// The empty set.
    pub const EMPTY: RegSet = RegSet(0);

    /// Set containing every register.
    pub const ALL: RegSet = RegSet((1 << 11) - 1);

    /// Insert a register.
    pub fn insert(&mut self, r: Reg) {
        self.0 |= 1 << r.index();
    }

    /// Remove a register.
    pub fn remove(&mut self, r: Reg) {
        self.0 &= !(1 << r.index());
    }

    /// Whether the register is in the set.
    pub fn contains(self, r: Reg) -> bool {
        self.0 & (1 << r.index()) != 0
    }

    /// Union with another set.
    pub fn union(self, other: RegSet) -> RegSet {
        RegSet(self.0 | other.0)
    }

    /// Number of registers in the set.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the set is empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Iterate over members in register order.
    pub fn iter(self) -> impl Iterator<Item = Reg> {
        Reg::ALL.into_iter().filter(move |r| self.contains(*r))
    }
}

impl FromIterator<Reg> for RegSet {
    fn from_iter<I: IntoIterator<Item = Reg>>(iter: I) -> RegSet {
        let mut s = RegSet::EMPTY;
        for r in iter {
            s.insert(r);
        }
        s
    }
}

/// Per-instruction liveness information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LiveMap {
    /// `live_in[i]` — registers live immediately before instruction `i`.
    pub live_in: Vec<RegSet>,
    /// `live_out[i]` — registers live immediately after instruction `i`.
    pub live_out: Vec<RegSet>,
    /// Stack byte offsets (relative to `r10`, so negative) that may be read
    /// after instruction `i` executes. Conservative: helper calls and loads
    /// through unresolved pointers make every frame byte live. Only
    /// populated by [`Liveness::analyze_with_types`] — the plain
    /// [`Liveness::analyze`] leaves these sets empty, because its only
    /// consumers (dead-code elimination, the proposal generator) read
    /// register liveness and the stack fixpoint is too expensive for the
    /// per-candidate canonicalization hot path.
    pub stack_live_out: Vec<Vec<i16>>,
}

/// The liveness analysis.
#[derive(Debug, Clone, Copy, Default)]
pub struct Liveness {
    /// Registers considered live at every program exit. For BPF programs
    /// `r0` (the return value) is live at `exit`; callers can add more (e.g.
    /// when analysing a window, everything live into the following code).
    pub live_at_exit: RegSet,
}

impl Liveness {
    /// Analysis with the default exit set (`r0`).
    pub fn new() -> Liveness {
        let mut live_at_exit = RegSet::EMPTY;
        live_at_exit.insert(Reg::R0);
        Liveness { live_at_exit }
    }

    /// Run the register-liveness analysis. `stack_live_out` is left empty:
    /// stack-byte liveness needs pointer provenance to be both sound and
    /// precise, and its whole-frame conservative sets are too expensive to
    /// drag through the per-candidate canonicalization hot path — use
    /// [`Liveness::analyze_with_types`] (window verification does) when the
    /// stack sets are actually needed.
    pub fn analyze(&self, insns: &[Insn], cfg: &Cfg) -> LiveMap {
        self.run(insns, cfg, None)
    }

    /// [`Liveness::analyze`] with a [`Types`] analysis of the same program
    /// and its map definitions: loads whose base pointer is statically known
    /// *not* to point into the stack no longer make the frame live,
    /// stack-pointer loads at a known offset make only their bytes live, and
    /// helper calls with fully-resolved map arguments pin down exactly the
    /// key/value bytes the helper reads instead of the whole frame.
    pub fn analyze_with_types(
        &self,
        insns: &[Insn],
        cfg: &Cfg,
        types: &Types,
        maps: &[MapDef],
    ) -> LiveMap {
        self.run(insns, cfg, Some((types, maps)))
    }

    fn run(&self, insns: &[Insn], cfg: &Cfg, types: Option<(&Types, &[MapDef])>) -> LiveMap {
        let n = insns.len();
        let mut live_in = vec![RegSet::EMPTY; n];
        let mut live_out = vec![RegSet::EMPTY; n];

        // Iterate to a fixed point (the CFG is tiny; simplicity over speed).
        let mut changed = true;
        while changed {
            changed = false;
            for block in cfg.blocks.iter().rev() {
                for idx in block.range().rev() {
                    let insn = &insns[idx];
                    // live_out = union of live_in of successors.
                    let mut out = RegSet::EMPTY;
                    if matches!(insn, Insn::Exit) {
                        out = self.live_at_exit;
                    } else if idx == block.end - 1 {
                        for &succ in &block.succs {
                            let s_start = cfg.blocks[succ].start;
                            out = out.union(live_in[s_start]);
                        }
                        // A conditional jump also falls through inside the
                        // block list; successor blocks cover both targets.
                    } else {
                        out = live_in[idx + 1];
                    }

                    let mut inn = out;
                    if let Some(def) = insn.def() {
                        inn.remove(def);
                    }
                    for clobbered in insn.clobbers() {
                        inn.remove(*clobbered);
                    }
                    for used in insn.uses() {
                        inn.insert(used);
                    }

                    if out != live_out[idx] || inn != live_in[idx] {
                        live_out[idx] = out;
                        live_in[idx] = inn;
                        changed = true;
                    }
                }
            }
        }

        let stack_live_out = match types {
            Some((t, m)) => self.stack_liveness(insns, cfg, t, m),
            None => vec![Vec::new(); n],
        };
        LiveMap {
            live_in,
            live_out,
            stack_live_out,
        }
    }

    /// Backward liveness of statically-known stack slots (byte granularity,
    /// offsets relative to `r10`). Returns the live-*out* set per
    /// instruction: the stack bytes that may still be read after it executes.
    fn stack_liveness(
        &self,
        insns: &[Insn],
        cfg: &Cfg,
        types: &Types,
        maps: &[MapDef],
    ) -> Vec<Vec<i16>> {
        let n = insns.len();
        let mut live_in: Vec<Vec<i16>> = vec![Vec::new(); n];
        let mut live_out: Vec<Vec<i16>> = vec![Vec::new(); n];
        let mut changed = true;
        while changed {
            changed = false;
            for block in cfg.blocks.iter().rev() {
                for idx in block.range().rev() {
                    let insn = &insns[idx];
                    let out: Vec<i16> = if matches!(insn, Insn::Exit) {
                        Vec::new()
                    } else if idx == block.end - 1 {
                        let mut v = Vec::new();
                        for &succ in &block.succs {
                            for &o in &live_in[cfg.blocks[succ].start] {
                                if !v.contains(&o) {
                                    v.push(o);
                                }
                            }
                        }
                        v
                    } else {
                        live_in[idx + 1].clone()
                    };

                    let mut inn = out.clone();
                    match insn {
                        // A store to [r10+off] kills those bytes.
                        Insn::Store {
                            size,
                            base: Reg::R10,
                            off,
                            ..
                        }
                        | Insn::StoreImm {
                            size,
                            base: Reg::R10,
                            off,
                            ..
                        } => {
                            inn.retain(|&o| o < *off || o >= off + size.bytes() as i16);
                        }
                        // A load from [r10+off] makes those bytes live.
                        Insn::Load {
                            size,
                            base: Reg::R10,
                            off,
                            ..
                        }
                        | Insn::AtomicAdd {
                            size,
                            base: Reg::R10,
                            off,
                            ..
                        } => {
                            push_bytes(&mut inn, *off, *size);
                        }
                        // A helper may read stack memory through a pointer
                        // argument (e.g. a map key prepared at [r10-4] and
                        // passed in r2); without proof to the contrary the
                        // whole frame is live. (Regression: this arm used to
                        // be an empty no-op, which let window verification
                        // treat helper-read key bytes as dead and accept
                        // rewrites that corrupt them.) With type and map-def
                        // information the known helper signatures pin down
                        // the exact bytes read.
                        Insn::Call { helper } => {
                            match call_stack_reads(*helper, idx, types, maps) {
                                Some(reads) => {
                                    for (off, len) in reads {
                                        for b in 0..len {
                                            let o = off + b as i16;
                                            if !inn.contains(&o) {
                                                inn.push(o);
                                            }
                                        }
                                    }
                                }
                                None => inn = whole_frame(),
                            }
                        }
                        // A load or atomic through a non-r10 base (the r10
                        // cases matched above) may alias the stack via a
                        // copied pointer. With type information the base's
                        // provenance decides; without it, or when the
                        // pointer is a stack pointer at an unknown offset,
                        // the whole frame is live.
                        Insn::Load { size, .. } | Insn::AtomicAdd { size, .. } => {
                            match types.mem_access(idx, insn) {
                                Some((MemRegion::Stack, Some(o))) => {
                                    if let Ok(off) = i16::try_from(o) {
                                        push_bytes(&mut inn, off, *size);
                                    } else {
                                        inn = whole_frame();
                                    }
                                }
                                Some((MemRegion::Stack, None)) | None => {
                                    inn = whole_frame();
                                }
                                // Provably not a stack access.
                                Some((_, _)) => {}
                            }
                        }
                        _ => {}
                    }
                    inn.sort_unstable();
                    inn.dedup();
                    let mut out_sorted = out;
                    out_sorted.sort_unstable();
                    out_sorted.dedup();
                    if inn != live_in[idx] || out_sorted != live_out[idx] {
                        live_in[idx] = inn;
                        live_out[idx] = out_sorted;
                        changed = true;
                    }
                }
            }
        }
        live_out
    }
}

/// Every addressable byte of the frame, `[-STACK_SIZE, 0)` relative to
/// `r10` — the "anything may be read later" element of the stack lattice.
fn whole_frame() -> Vec<i16> {
    (-(STACK_SIZE as i16)..0).collect()
}

/// The stack byte ranges `(offset, length)` a helper call at `idx` reads,
/// derived from the modelled helper signatures (the same set `bpf-interp`
/// implements). `Some(vec![])` means "provably reads no stack byte";
/// `None` means the reads cannot be bounded and the whole frame must be
/// treated as live.
fn call_stack_reads(
    helper: HelperId,
    idx: usize,
    types: &Types,
    maps: &[MapDef],
) -> Option<Vec<(i16, u32)>> {
    // A pointer argument resolved to a concrete region/offset; scalars and
    // unknowns make the call unboundable.
    let ptr_arg = |reg: Reg| -> Option<Option<i16>> {
        match types.reg_before(idx, reg) {
            AbsVal::Ptr {
                region: MemRegion::Stack,
                offset: Some(o),
            } => i16::try_from(o).ok().map(Some),
            // A pointer provably outside the stack: no stack bytes read.
            AbsVal::Ptr { region, .. } if region != MemRegion::Stack => Some(None),
            _ => None,
        }
    };
    let map_def = || -> Option<&MapDef> {
        let id = types.map_id_at_call(idx)?;
        maps.iter().find(|def| def.id.0 == id)
    };
    match helper {
        // No pointer arguments (or, for redirect_map, a by-value key; for
        // perf_event_output, modelled as a no-op that reads nothing).
        HelperId::KtimeGetNs
        | HelperId::GetPrandomU32
        | HelperId::GetSmpProcessorId
        | HelperId::GetCurrentPidTgid
        | HelperId::XdpAdjustHead
        | HelperId::RedirectMap
        | HelperId::PerfEventOutput => Some(Vec::new()),
        // Key pointer in r2.
        HelperId::MapLookup | HelperId::MapDelete => {
            let def = map_def()?;
            match ptr_arg(Reg::R2)? {
                Some(off) => Some(vec![(off, def.key_size)]),
                None => Some(Vec::new()),
            }
        }
        // Key pointer in r2, value pointer in r3.
        HelperId::MapUpdate => {
            let def = map_def()?;
            let mut reads = Vec::new();
            if let Some(off) = ptr_arg(Reg::R2)? {
                reads.push((off, def.key_size));
            }
            if let Some(off) = ptr_arg(Reg::R3)? {
                reads.push((off, def.value_size));
            }
            Some(reads)
        }
        // csum_diff reads caller-sized buffers through r1 and r3; bounding
        // them would need constant-propagated sizes, so stay conservative.
        HelperId::CsumDiff | HelperId::Unknown(_) => None,
    }
}

fn push_bytes(out: &mut Vec<i16>, off: i16, size: MemSize) {
    for b in 0..size.bytes() as i16 {
        let o = off + b;
        if !out.contains(&o) {
            out.push(o);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpf_isa::{asm, ProgramType};

    fn analyze(text: &str) -> (Vec<Insn>, LiveMap) {
        let insns = asm::assemble(text).unwrap();
        let cfg = Cfg::build(&insns).unwrap();
        let live = Liveness::new().analyze(&insns, &cfg);
        (insns, live)
    }

    /// Analysis including stack-byte liveness (which needs type info).
    fn analyze_stack(text: &str) -> (Vec<Insn>, LiveMap) {
        let insns = asm::assemble(text).unwrap();
        let cfg = Cfg::build(&insns).unwrap();
        let types = crate::Types::analyze(&insns, &cfg, ProgramType::Xdp);
        let live = Liveness::new().analyze_with_types(&insns, &cfg, &types, &[]);
        (insns, live)
    }

    #[test]
    fn regset_basics() {
        let mut s = RegSet::EMPTY;
        assert!(s.is_empty());
        s.insert(Reg::R3);
        s.insert(Reg::R10);
        assert!(s.contains(Reg::R3));
        assert!(!s.contains(Reg::R4));
        assert_eq!(s.len(), 2);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![Reg::R3, Reg::R10]);
        s.remove(Reg::R3);
        assert_eq!(s.len(), 1);
        assert_eq!(RegSet::ALL.len(), 11);
    }

    #[test]
    fn dead_def_is_not_live() {
        // r2 is defined but never used; r0 is the return value.
        let (_, live) = analyze("mov64 r2, 5\nmov64 r0, 1\nexit");
        assert!(!live.live_out[0].contains(Reg::R2));
        assert!(live.live_out[1].contains(Reg::R0));
        assert!(live.live_in[2].contains(Reg::R0));
    }

    #[test]
    fn use_keeps_value_live_through_branch() {
        let text = r"
            mov64 r3, 7
            jeq r1, 0, +1
            mov64 r3, 9
            mov64 r0, r3
            exit
        ";
        let (_, live) = analyze(text);
        // r3 defined at 0 is live across the branch because the path that
        // skips instruction 2 still reads it at 3.
        assert!(live.live_out[0].contains(Reg::R3));
        assert!(live.live_in[1].contains(Reg::R3));
        assert!(live.live_in[3].contains(Reg::R3));
        assert!(!live.live_out[3].contains(Reg::R3));
        // r1 is only live until the branch reads it.
        assert!(live.live_in[0].contains(Reg::R1));
        assert!(!live.live_out[1].contains(Reg::R1));
    }

    #[test]
    fn helper_call_kills_caller_saved() {
        let text = r"
            mov64 r6, 1
            mov64 r2, 2
            call ktime_get_ns
            mov64 r0, r6
            exit
        ";
        let (_, live) = analyze(text);
        // r2 dies at the call (clobbered, not used by ktime_get_ns).
        assert!(!live.live_out[1].contains(Reg::R2) || !live.live_in[2].contains(Reg::R2));
        // r6 is callee-saved and read later: live across the call.
        assert!(live.live_in[2].contains(Reg::R6));
    }

    #[test]
    fn stack_slot_liveness() {
        let text = r"
            mov64 r1, 1
            stxdw [r10-8], r1
            stxdw [r10-16], r1
            ldxdw r0, [r10-8]
            exit
        ";
        let (_, live) = analyze_stack(text);
        // After instruction 1 (store to -8), bytes -8..0 are live (read at 3),
        // but -16..-9 are not (never read).
        assert!(live.stack_live_out[1].contains(&-8));
        assert!(live.stack_live_out[1].contains(&-1));
        assert!(!live.stack_live_out[2].contains(&-16));
        // After the load, nothing on the stack is live.
        assert!(live.stack_live_out[3].is_empty());
    }

    #[test]
    fn store_kills_stack_bytes() {
        let text = r"
            stdw [r10-8], 1
            stdw [r10-8], 2
            ldxdw r0, [r10-8]
            exit
        ";
        let (_, live) = analyze_stack(text);
        // Before instruction 1 the slot is about to be overwritten, so the
        // bytes are not live out of instruction 0.
        assert!(live.stack_live_out[0].is_empty());
        assert!(live.stack_live_out[1].contains(&-8));
    }

    #[test]
    fn helper_calls_keep_the_whole_frame_live() {
        // Regression: the Call arm used to be an empty no-op, so the map key
        // at [r10-4] (passed to the helper through the r2 pointer) was
        // reported dead — which let window verification accept rewrites that
        // corrupt helper-read stack bytes. (The map id is not statically
        // known here, so the call cannot be bounded by a signature and the
        // whole frame must stay live.)
        let text = r"
            mov64 r7, 1
            stxw [r10-4], r7
            mov64 r2, r10
            add64 r2, -4
            call map_lookup_elem
            mov64 r0, 0
            exit
        ";
        let insns = asm::assemble(text).unwrap();
        let cfg = Cfg::build(&insns).unwrap();
        let types = crate::Types::analyze(&insns, &cfg, ProgramType::Xdp);
        let live = Liveness::new().analyze_with_types(&insns, &cfg, &types, &[]);
        // The key bytes are live out of the store: a helper may read them.
        for b in [-4i16, -3, -2, -1] {
            assert!(
                live.stack_live_out[1].contains(&b),
                "byte {b} not live before the call"
            );
        }
        // After the call, nothing keeps them live.
        assert!(!live.stack_live_out[4].contains(&-4));
        // The plain register-only analysis leaves the stack sets empty (they
        // are not computed on the canonicalization hot path).
        let plain = Liveness::new().analyze(&insns, &cfg);
        assert!(plain.stack_live_out.iter().all(Vec::is_empty));
    }

    #[test]
    fn pointer_loads_make_their_stack_bytes_live() {
        // A load through a non-r10 base may alias the stack via a copied
        // pointer; the stack pointer's concrete offset makes exactly the
        // loaded bytes live — and a provably-non-stack load keeps none.
        let text = r"
            stdw [r10-8], 7
            mov64 r6, r10
            ldxdw r0, [r6-8]
            exit
        ";
        let insns = asm::assemble(text).unwrap();
        let cfg = Cfg::build(&insns).unwrap();
        let types = crate::Types::analyze(&insns, &cfg, ProgramType::Xdp);
        let typed = Liveness::new().analyze_with_types(&insns, &cfg, &types, &[]);
        assert!(typed.stack_live_out[0].contains(&-8));
        assert!(!typed.stack_live_out[0].contains(&-16));

        let ctx_text = r"
            stdw [r10-8], 7
            ldxw r0, [r1+0]
            ldxdw r0, [r10-8]
            exit
        ";
        let ctx_insns = asm::assemble(ctx_text).unwrap();
        let ctx_cfg = Cfg::build(&ctx_insns).unwrap();
        let ctx_types = crate::Types::analyze(&ctx_insns, &ctx_cfg, ProgramType::Xdp);
        let ctx_live = Liveness::new().analyze_with_types(&ctx_insns, &ctx_cfg, &ctx_types, &[]);
        // The ctx load (r1 is the context pointer) does not touch the stack;
        // [r10-8] is live only because of the later r10 load.
        assert_eq!(
            ctx_live.stack_live_out[0],
            vec![-8, -7, -6, -5, -4, -3, -2, -1]
        );
    }

    #[test]
    fn r0_live_at_exit() {
        // `exit` reads r0, so the preceding definition is live regardless of
        // the extra `live_at_exit` set.
        let (_, live) = analyze("mov64 r0, 3\nexit");
        assert!(live.live_out[0].contains(Reg::R0));
        // Extra registers can be declared live at exit (used when a window is
        // analysed in place of a whole program).
        let mut extra = RegSet::EMPTY;
        extra.insert(Reg::R6);
        let custom = Liveness {
            live_at_exit: extra,
        };
        let insns = asm::assemble("mov64 r6, 1\nmov64 r0, 3\nexit").unwrap();
        let cfg = Cfg::build(&insns).unwrap();
        let live2 = custom.analyze(&insns, &cfg);
        assert!(live2.live_out[0].contains(Reg::R6));
        let default = Liveness::new().analyze(&insns, &cfg);
        assert!(!default.live_out[0].contains(Reg::R6));
    }
}
