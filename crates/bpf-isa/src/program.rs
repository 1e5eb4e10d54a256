//! Program container: instruction sequence, program type, and map definitions.

use crate::{HelperId, Insn, IsaError, MemSize};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a BPF map declared by a program.
///
/// In the kernel this is a file descriptor patched in by the loader; here it
/// is a small stable integer naming an entry in [`Program::maps`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct MapId(pub u32);

impl fmt::Display for MapId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "map{}", self.0)
    }
}

/// Kind of BPF map. Only the kinds used by the benchmark suite are modelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MapKind {
    /// `BPF_MAP_TYPE_HASH`: arbitrary keys, entries can be created/deleted.
    Hash,
    /// `BPF_MAP_TYPE_ARRAY`: keys are `u32` indices `< max_entries`; all
    /// entries always exist and are zero-initialized.
    Array,
    /// `BPF_MAP_TYPE_PERCPU_ARRAY`: modelled as a plain array (single CPU).
    PerCpuArray,
    /// `BPF_MAP_TYPE_DEVMAP` / `CPUMAP`: redirect targets; values are u32.
    DevMap,
    /// `BPF_MAP_TYPE_LPM_TRIE`: longest-prefix-match; modelled as a hash over
    /// (prefix-length, key) with exact-match semantics for formal queries.
    LpmTrie,
}

/// Static definition of one map used by a program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MapDef {
    /// Identifier referenced by `ld_map_fd` instructions.
    pub id: MapId,
    /// Map kind.
    pub kind: MapKind,
    /// Size of keys in bytes.
    pub key_size: u32,
    /// Size of values in bytes.
    pub value_size: u32,
    /// Maximum number of entries.
    pub max_entries: u32,
}

impl MapDef {
    /// Convenience constructor for an array map with `u32` keys.
    pub fn array(id: u32, value_size: u32, max_entries: u32) -> MapDef {
        MapDef {
            id: MapId(id),
            kind: MapKind::Array,
            key_size: 4,
            value_size,
            max_entries,
        }
    }

    /// Convenience constructor for a hash map.
    pub fn hash(id: u32, key_size: u32, value_size: u32, max_entries: u32) -> MapDef {
        MapDef {
            id: MapId(id),
            kind: MapKind::Hash,
            key_size,
            value_size,
            max_entries,
        }
    }
}

/// The attach point of a BPF program, which determines the layout of its
/// context (`r1` at entry) and the meaning of its return value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ProgramType {
    /// XDP: context is `struct xdp_md` (packet start/end/metadata pointers);
    /// the return value is an XDP action (`XDP_DROP`, `XDP_PASS`, ...).
    Xdp,
    /// Socket filter: context is a socket buffer view of the packet; the
    /// return value is the number of bytes to keep (0 drops the packet).
    SocketFilter,
    /// Traffic-control classifier (`cls_act`): like a socket filter but with
    /// a TC action return code.
    SchedCls,
    /// Tracepoint / kprobe: context is a raw tracepoint argument record;
    /// return value is ignored (conventionally 0).
    Tracepoint,
}

/// What one slot of a program context holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtxField {
    /// The packet `data` pointer.
    Data,
    /// The packet `data_end` pointer.
    DataEnd,
    /// The packet metadata pointer, equal to `data` (no metadata is modelled).
    DataMeta,
    /// The low bytes of context word `i` of the input (`ProgramInput::ctx_words`).
    Input(usize),
}

/// One slot of a context layout: `(offset, width in bytes, what it holds)`.
pub type CtxSlot = (usize, usize, CtxField);

/// What a load from the context yields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtxLoad {
    /// The packet start pointer (`data` or `data_meta`).
    Packet,
    /// The packet end pointer.
    PacketEnd,
    /// A scalar.
    Scalar,
}

/// `struct xdp_md` as modelled: three 64-bit packet pointers, then the
/// ingress ifindex and the rx queue index.
const PACKET_CTX: [CtxSlot; 5] = [
    (0, 8, CtxField::Data),
    (8, 8, CtxField::DataEnd),
    (16, 8, CtxField::DataMeta),
    (24, 4, CtxField::Input(0)),
    (28, 4, CtxField::Input(1)),
];

/// A raw tracepoint record: eight 64-bit argument words.
const TRACEPOINT_CTX: [CtxSlot; 8] = [
    (0, 8, CtxField::Input(0)),
    (8, 8, CtxField::Input(1)),
    (16, 8, CtxField::Input(2)),
    (24, 8, CtxField::Input(3)),
    (32, 8, CtxField::Input(4)),
    (40, 8, CtxField::Input(5)),
    (48, 8, CtxField::Input(6)),
    (56, 8, CtxField::Input(7)),
];

impl ProgramType {
    /// The context passed in `r1`, slot by slot in offset order: which bytes
    /// hold packet pointers and which hold inputs.
    pub fn ctx_layout(self) -> &'static [CtxSlot] {
        match self {
            ProgramType::Xdp | ProgramType::SocketFilter | ProgramType::SchedCls => &PACKET_CTX,
            ProgramType::Tracepoint => &TRACEPOINT_CTX,
        }
    }

    /// Size in bytes of the context structure passed in `r1`.
    pub fn ctx_size(self) -> usize {
        self.ctx_layout()
            .last()
            .map_or(0, |&(off, size, _)| off + size)
    }

    /// The slot holding all `size` bytes at context offset `offset`, if one
    /// does (an access that crosses a slot boundary or leaves the context
    /// has none).
    pub fn ctx_slot(self, offset: i64, size: MemSize) -> Option<CtxSlot> {
        let end = offset + size.bytes() as i64;
        self.ctx_layout()
            .iter()
            .copied()
            .find(|&(off, width, _)| off as i64 <= offset && end <= (off + width) as i64)
    }

    /// What a `size` load at context offset `offset` yields: a packet
    /// pointer when it reads a whole pointer slot, else a scalar.
    pub fn ctx_load(self, offset: i64, size: MemSize) -> CtxLoad {
        let mut layout = self.ctx_layout().iter();
        match layout.find(|&&(off, width, _)| off as i64 == offset && width == size.bytes()) {
            Some((_, _, CtxField::Data | CtxField::DataMeta)) => CtxLoad::Packet,
            Some((_, _, CtxField::DataEnd)) => CtxLoad::PacketEnd,
            _ => CtxLoad::Scalar,
        }
    }

    /// Whether programs of this type may call `helper`: only XDP programs
    /// may move the packet head.
    pub fn offers(self, helper: HelperId) -> bool {
        helper != HelperId::XdpAdjustHead || self == ProgramType::Xdp
    }

    /// The set of XDP action codes, useful for workload generators and
    /// output interpretation.
    pub const XDP_ABORTED: u64 = 0;
    /// `XDP_DROP` action code.
    pub const XDP_DROP: u64 = 1;
    /// `XDP_PASS` action code.
    pub const XDP_PASS: u64 = 2;
    /// `XDP_TX` action code.
    pub const XDP_TX: u64 = 3;
    /// `XDP_REDIRECT` action code.
    pub const XDP_REDIRECT: u64 = 4;

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            ProgramType::Xdp => "xdp",
            ProgramType::SocketFilter => "socket_filter",
            ProgramType::SchedCls => "sched_cls",
            ProgramType::Tracepoint => "tracepoint",
        }
    }
}

impl fmt::Display for ProgramType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A complete BPF program: type, instructions and map definitions.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Program {
    /// Attach point of the program.
    pub prog_type: ProgramType,
    /// Instruction sequence.
    pub insns: Vec<Insn>,
    /// Maps referenced by `ld_map_fd` instructions.
    pub maps: Vec<MapDef>,
}

impl Program {
    /// Create a program with no maps.
    pub fn new(prog_type: ProgramType, insns: Vec<Insn>) -> Program {
        Program {
            prog_type,
            insns,
            maps: Vec::new(),
        }
    }

    /// Create a program with map definitions.
    pub fn with_maps(prog_type: ProgramType, insns: Vec<Insn>, maps: Vec<MapDef>) -> Program {
        Program {
            prog_type,
            insns,
            maps,
        }
    }

    /// Number of structured instructions.
    pub fn len(&self) -> usize {
        self.insns.len()
    }

    /// Whether the instruction list is empty.
    pub fn is_empty(&self) -> bool {
        self.insns.is_empty()
    }

    /// Number of instructions excluding `nop`s — the metric reported in the
    /// paper's Table 1 ("number of instructions").
    pub fn real_len(&self) -> usize {
        self.insns
            .iter()
            .filter(|i| !matches!(i, Insn::Nop))
            .count()
    }

    /// Number of 8-byte wire slots the program occupies once encoded
    /// (what the kernel's 4096-instruction limit counts).
    pub fn slot_len(&self) -> usize {
        self.insns
            .iter()
            .filter(|i| !matches!(i, Insn::Nop))
            .map(Insn::slot_len)
            .sum()
    }

    /// Look up a map definition by id.
    pub fn map(&self, id: MapId) -> Option<&MapDef> {
        self.maps.iter().find(|m| m.id == id)
    }

    /// Replace the instruction sequence, keeping type and maps.
    pub fn with_insns(&self, insns: Vec<Insn>) -> Program {
        Program {
            prog_type: self.prog_type,
            insns,
            maps: self.maps.clone(),
        }
    }

    /// Structural validation: jump targets in range, final instruction
    /// reachable as `exit`, referenced maps declared, atomic sizes legal.
    ///
    /// This is *not* the safety checker (see `bpf-safety`); it only rejects
    /// programs that are malformed at the container level.
    pub fn validate(&self) -> Result<(), IsaError> {
        if self.insns.is_empty() {
            return Err(IsaError::MissingExit);
        }
        if !self.insns.iter().any(|i| matches!(i, Insn::Exit)) {
            return Err(IsaError::MissingExit);
        }
        for (idx, insn) in self.insns.iter().enumerate() {
            if let Some(target) = insn.jump_target(idx) {
                if target < 0 || target as usize >= self.insns.len() {
                    return Err(IsaError::JumpOutOfRange { at: idx, target });
                }
            }
            if let Insn::LoadMapFd { map_id, .. } = insn {
                if self.map(MapId(*map_id)).is_none() {
                    return Err(IsaError::UnknownMap(*map_id));
                }
            }
            if let Insn::AtomicAdd { size, .. } = insn {
                if !matches!(size, MemSize::Word | MemSize::Dword) {
                    return Err(IsaError::InvalidOpcode(0xc3));
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "; {} program, {} insns, {} maps",
            self.prog_type,
            self.len(),
            self.maps.len()
        )?;
        for (i, insn) in self.insns.iter().enumerate() {
            writeln!(f, "{i:4}: {insn}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{JmpOp, Reg};

    fn sample() -> Program {
        Program::with_maps(
            ProgramType::Xdp,
            vec![
                Insn::LoadMapFd {
                    dst: Reg::R1,
                    map_id: 1,
                },
                Insn::mov64_imm(Reg::R2, 0),
                Insn::call(HelperId::MapLookup),
                Insn::jmp_imm(JmpOp::Eq, Reg::R0, 0, 1),
                Insn::mov64_imm(Reg::R0, 2),
                Insn::Exit,
            ],
            vec![MapDef::array(1, 8, 16)],
        )
    }

    #[test]
    fn validate_accepts_well_formed() {
        sample().validate().unwrap();
    }

    #[test]
    fn validate_rejects_missing_exit() {
        let p = Program::new(ProgramType::Xdp, vec![Insn::mov64_imm(Reg::R0, 0)]);
        assert_eq!(p.validate(), Err(IsaError::MissingExit));
        let empty = Program::new(ProgramType::Xdp, vec![]);
        assert_eq!(empty.validate(), Err(IsaError::MissingExit));
    }

    #[test]
    fn validate_rejects_out_of_range_jump() {
        let p = Program::new(
            ProgramType::Xdp,
            vec![Insn::jmp_imm(JmpOp::Eq, Reg::R1, 0, 7), Insn::Exit],
        );
        assert!(matches!(
            p.validate(),
            Err(IsaError::JumpOutOfRange { at: 0, target: 8 })
        ));
        let p2 = Program::new(ProgramType::Xdp, vec![Insn::Ja { off: -5 }, Insn::Exit]);
        assert!(matches!(
            p2.validate(),
            Err(IsaError::JumpOutOfRange { .. })
        ));
    }

    #[test]
    fn validate_rejects_undeclared_map() {
        let mut p = sample();
        p.maps.clear();
        assert_eq!(p.validate(), Err(IsaError::UnknownMap(1)));
    }

    #[test]
    fn validate_rejects_bad_atomic_size() {
        let p = Program::new(
            ProgramType::Xdp,
            vec![
                Insn::AtomicAdd {
                    size: MemSize::Byte,
                    base: Reg::R10,
                    off: -8,
                    src: Reg::R1,
                },
                Insn::Exit,
            ],
        );
        assert!(p.validate().is_err());
    }

    #[test]
    fn lengths() {
        let mut p = sample();
        assert_eq!(p.len(), 6);
        assert_eq!(p.real_len(), 6);
        assert_eq!(p.slot_len(), 7); // lddw counts twice
        p.insns.push(Insn::Nop);
        assert_eq!(p.real_len(), 6);
        assert_eq!(p.slot_len(), 7);
    }

    #[test]
    fn map_lookup_by_id() {
        let p = sample();
        assert!(p.map(MapId(1)).is_some());
        assert!(p.map(MapId(9)).is_none());
    }

    #[test]
    fn context_layouts_are_sorted_disjoint_and_fit_the_context() {
        for ty in [
            ProgramType::Xdp,
            ProgramType::SocketFilter,
            ProgramType::SchedCls,
            ProgramType::Tracepoint,
        ] {
            let layout = ty.ctx_layout();
            assert!(!layout.is_empty(), "{ty}");
            for pair in layout.windows(2) {
                assert!(pair[0].0 + pair[0].1 <= pair[1].0, "{ty}: {pair:?}");
            }
            for &(offset, size, field) in layout {
                assert!(size > 0 && offset + size <= ty.ctx_size(), "{ty}");
                // The default input carries eight context words.
                if let CtxField::Input(word) = field {
                    assert!(word < 8, "{ty}: {field:?}");
                }
            }
        }
        assert_eq!(ProgramType::Xdp.ctx_size(), 32);
        assert_eq!(ProgramType::Tracepoint.ctx_size(), 64);
    }

    #[test]
    fn only_whole_pointer_slots_load_pointers() {
        let xdp = ProgramType::Xdp;
        assert_eq!(xdp.ctx_load(0, MemSize::Dword), CtxLoad::Packet);
        assert_eq!(xdp.ctx_load(8, MemSize::Dword), CtxLoad::PacketEnd);
        assert_eq!(xdp.ctx_load(16, MemSize::Dword), CtxLoad::Packet);
        assert_eq!(xdp.ctx_load(0, MemSize::Word), CtxLoad::Scalar);
        assert_eq!(xdp.ctx_load(4, MemSize::Dword), CtxLoad::Scalar);
        assert_eq!(xdp.ctx_load(24, MemSize::Dword), CtxLoad::Scalar);
        for off in (0..64).step_by(8) {
            assert_eq!(
                ProgramType::Tracepoint.ctx_load(off, MemSize::Dword),
                CtxLoad::Scalar
            );
        }
    }

    #[test]
    fn a_context_access_has_a_slot_only_within_one() {
        let xdp = ProgramType::Xdp;
        assert_eq!(
            xdp.ctx_slot(0, MemSize::Dword),
            Some((0, 8, CtxField::Data))
        );
        assert_eq!(
            xdp.ctx_slot(9, MemSize::Byte),
            Some((8, 8, CtxField::DataEnd))
        );
        assert_eq!(
            xdp.ctx_slot(26, MemSize::Half),
            Some((24, 4, CtxField::Input(0)))
        );
        assert_eq!(xdp.ctx_slot(4, MemSize::Dword), None);
        assert_eq!(xdp.ctx_slot(24, MemSize::Dword), None);
        assert_eq!(xdp.ctx_slot(32, MemSize::Byte), None);
        assert_eq!(xdp.ctx_slot(-1, MemSize::Byte), None);
        let tp = ProgramType::Tracepoint;
        assert_eq!(
            tp.ctx_slot(12, MemSize::Word),
            Some((8, 8, CtxField::Input(1)))
        );
        assert_eq!(tp.ctx_slot(60, MemSize::Dword), None);
    }

    #[test]
    fn only_xdp_programs_may_adjust_the_head() {
        assert!(ProgramType::Xdp.offers(HelperId::XdpAdjustHead));
        assert!(!ProgramType::SocketFilter.offers(HelperId::XdpAdjustHead));
        assert!(!ProgramType::Tracepoint.offers(HelperId::XdpAdjustHead));
        assert!(ProgramType::Tracepoint.offers(HelperId::MapLookup));
    }

    #[test]
    fn xdp_action_codes() {
        assert_eq!(ProgramType::XDP_DROP, 1);
        assert_eq!(ProgramType::XDP_PASS, 2);
    }
}
