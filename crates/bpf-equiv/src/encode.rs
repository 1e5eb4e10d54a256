//! Symbolic encoding of BPF programs into bit-vector formulas.
//!
//! [`Encoder`] owns the shared input variables (packet length, packet bytes,
//! context, initial map state, timestamps, ...) and the per-program store
//! chains. Encoding the source program and a candidate program against the
//! *same* encoder makes them read the same inputs, which is exactly the
//! "inputs to program 1 == inputs to program 2" premise of the paper's
//! equivalence query (§4).
//!
//! All state is one memory model of *cells*: a stack, packet or context byte
//! at an address, a byte of the value under a key of one map, or the
//! presence of a key in one map. Cells live in tables (one per memory region
//! and one per map, or one for all memory with optimization I off), and one
//! rule, `Encoder::same_cell`, decides whether two cells of a table are the
//! same. The first read of a cell's initial state reuses an earlier cell when
//! the rule folds to true and otherwise gets a fresh variable plus an
//! Ackermann implication (same cell ⇒ same value) for every earlier cell the
//! rule does not rule out. A load walks its program's stores to the table;
//! a map update or delete stores a presence bit of true or false.

use bitsmt::{TermId, TermPool};
use bpf_analysis::cfg::Cfg;
use bpf_interp::layout::{CTX_BASE, PACKET_BASE, PACKET_HEADROOM, STACK_BASE};
use bpf_isa::{
    AluOp, ByteOrder, CtxField, CtxLoad, HelperId, Insn, JmpOp, MapDef, MapKind, MemSize, Program,
    ProgramType, Reg, Src, NUM_REGS, STACK_SIZE,
};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// The packet `data` pointer used in formulas (headroom already applied).
pub const DATA_PTR: u64 = PACKET_BASE + PACKET_HEADROOM as u64;

/// The value of `r10` in formulas.
pub const STACK_TOP: u64 = STACK_BASE + STACK_SIZE as u64;

/// A placeholder non-null pointer returned by successful map lookups.
/// Its numeric value never matters: map value accesses are resolved by key,
/// not by pointer arithmetic.
pub const MAP_VALUE_PTR: u64 = 0x0030_0000;

/// Reasons a program cannot be encoded. The search treats these candidates as
/// not-equivalent (they are never emitted), mirroring how the original K2
/// falls back when its static analyses cannot resolve a pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodeError {
    /// The control-flow graph could not be built (malformed jumps).
    Cfg(String),
    /// The program contains a loop (back edge), which BPF forbids.
    HasLoop,
    /// A memory access whose pointer provenance could not be determined, a
    /// helper used in an unsupported way, or a map with keys wider than 64
    /// bits.
    Unsupported(String),
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeError::Cfg(e) => write!(f, "cannot build CFG: {e}"),
            EncodeError::HasLoop => write!(f, "program contains a loop"),
            EncodeError::Unsupported(what) => write!(f, "unsupported pattern: {what}"),
        }
    }
}

impl std::error::Error for EncodeError {}

/// Which of the paper's concretization optimizations are enabled. Map
/// tables are always per map (the paper's optimization II): the encoder only
/// accepts map helpers on statically known maps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncodeOptions {
    /// Optimization I: separate tables per memory region.
    pub memory_type_concretization: bool,
    /// Optimization III: decide whether two memory cells are the same at
    /// compile time when both offsets are statically known.
    pub offset_concretization: bool,
}

impl Default for EncodeOptions {
    fn default() -> Self {
        EncodeOptions {
            memory_type_concretization: true,
            offset_concretization: true,
        }
    }
}

/// Where a cell lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Region {
    /// The stack. Its initial contents are shared between the two programs
    /// (harmless: safe programs never read uninitialized stack, and windows
    /// genuinely share the stack the common prefix produced).
    Stack,
    /// The shared packet buffer.
    Packet,
    /// The shared, read-only context.
    Context,
    /// As a table key only: all three memory regions (optimization I off).
    Memory,
    /// A byte of a value in map `id`.
    MapValue(u32),
    /// Whether a key is present in map `id`.
    MapPresent(u32),
}

impl Region {
    /// Bits per cell: a byte, or one presence bit.
    fn width(self) -> u32 {
        if matches!(self, Region::MapPresent(_)) {
            1
        } else {
            8
        }
    }
}

/// One byte (or presence bit) of state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct Cell {
    pub(crate) region: Region,
    /// The byte's address, or the key for map cells.
    pub(crate) term: TermId,
    /// The region-relative offset when statically known; the byte within the
    /// value for map values; `None` for presence.
    pub(crate) offset: Option<i64>,
}

impl Cell {
    /// Whether the output comparison observes the final value of a written
    /// cell: packet and map state always, the read-only context never, and
    /// the private stack only at the end of a window, where `live_stack`
    /// lists the offsets later code may read (an unknown offset may be any).
    fn observed(&self, live_stack: Option<&[i16]>) -> bool {
        match self.region {
            Region::Stack => live_stack.is_some_and(|live| {
                self.offset
                    .is_none_or(|offset| live.contains(&(offset as i16)))
            }),
            Region::Context => false,
            _ => true,
        }
    }
}

/// One store to a cell, made under the path condition `pc`.
#[derive(Debug, Clone, Copy)]
struct Store {
    cell: Cell,
    value: TermId,
    pc: TermId,
}

/// One table of cells: the initial values read so far, shared by both
/// programs, and each program's stores in program order.
#[derive(Debug, Default)]
struct Table {
    init: Vec<(Cell, TermId)>,
    /// Indexed by program tag.
    stores: Vec<Vec<Store>>,
}

/// The element `i` of `v`, growing `v` with defaults to reach it.
fn slot<T: Default>(v: &mut Vec<T>, i: usize) -> &mut T {
    if v.len() <= i {
        v.resize_with(i + 1, T::default);
    }
    &mut v[i]
}

/// An uninterpreted helper call, recorded so the checker can require both
/// programs to make the same calls with the same arguments in the same order.
#[derive(Debug, Clone)]
pub struct CallRecord {
    /// The helper.
    pub helper: HelperId,
    /// Argument terms (`r1`–`r5` as far as the helper reads them).
    pub args: Vec<TermId>,
    /// Path condition under which the call executes.
    pub pc: TermId,
}

/// Pointer provenance tracked by the symbolic executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Prov {
    None,
    Stack(Option<i64>),
    Packet(Option<i64>),
    PacketEnd(Option<i64>),
    Ctx(Option<i64>),
    MapValue {
        map_id: u32,
        key: TermId,
        offset: Option<i64>,
    },
    MapHandle(u32),
}
impl Prov {
    fn join(self, other: Prov) -> Prov {
        if self == other {
            return self;
        }
        match (self, other) {
            (Prov::Stack(a), Prov::Stack(b)) => Prov::Stack(if a == b { a } else { None }),
            (Prov::Packet(a), Prov::Packet(b)) => Prov::Packet(if a == b { a } else { None }),
            (Prov::Ctx(a), Prov::Ctx(b)) => Prov::Ctx(if a == b { a } else { None }),
            (Prov::PacketEnd(a), Prov::PacketEnd(b)) => {
                Prov::PacketEnd(if a == b { a } else { None })
            }
            (
                Prov::MapValue {
                    map_id: m1,
                    key: k1,
                    ..
                },
                Prov::MapValue {
                    map_id: m2,
                    key: k2,
                    ..
                },
            ) if m1 == m2 && k1 == k2 => Prov::MapValue {
                map_id: m1,
                key: k1,
                offset: None,
            },
            _ => Prov::None,
        }
    }

    fn add_offset(self, delta: Option<i64>) -> Prov {
        let bump = |o: Option<i64>| match (o, delta) {
            (Some(a), Some(d)) => Some(a + d),
            _ => None,
        };
        match self {
            Prov::Stack(o) => Prov::Stack(bump(o)),
            Prov::Packet(o) => Prov::Packet(bump(o)),
            Prov::PacketEnd(o) => Prov::PacketEnd(bump(o)),
            Prov::Ctx(o) => Prov::Ctx(bump(o)),
            Prov::MapValue {
                map_id,
                key,
                offset,
            } => Prov::MapValue {
                map_id,
                key,
                offset: bump(offset),
            },
            Prov::None | Prov::MapHandle(_) => Prov::None,
        }
    }
}

/// Per-block symbolic state during encoding.
#[derive(Debug, Clone)]
struct BlockState {
    pc: TermId,
    regs: [TermId; NUM_REGS],
    prov: [Prov; NUM_REGS],
}

/// The result of encoding one program.
#[derive(Debug, Clone)]
pub struct ProgramEncoding {
    /// Program tag (0 for the source, 1 for the candidate).
    pub tag: usize,
    /// The merged `r0` value over all reachable exits.
    pub ret: TermId,
    /// Register state at the fall-through end (only meaningful for windows,
    /// which contain no `exit`).
    pub end_regs: Option<[TermId; NUM_REGS]>,
    /// Uninterpreted helper calls in program order.
    pub call_log: Vec<CallRecord>,
}

/// The encoder: shared inputs, per-program store chains, accumulated
/// constraints.
pub struct Encoder<'p> {
    pool: &'p mut TermPool,
    opts: EncodeOptions,
    /// Symbolic packet length (bytes), shared by both programs.
    pub packet_len: TermId,
    /// Shared `bpf_ktime_get_ns` value.
    pub time_ns: TermId,
    /// Shared processor id.
    pub cpu_id: TermId,
    /// Shared pid/tgid.
    pub pid_tgid: TermId,
    /// Shared pseudo-random sequence, indexed by call order.
    prandom: Vec<TermId>,
    /// Shared uninterpreted-call return values, indexed by call order.
    ucall_returns: Vec<TermId>,
    /// Side constraints (aliasing implications etc.) to assert.
    pub constraints: Vec<TermId>,

    map_defs: HashMap<u32, MapDef>,
    /// The type of the first program encoded, which fixes the context layout.
    prog_type: Option<ProgramType>,
    /// The tables, each under its key (see [`Encoder::table`]).
    tables: Vec<(Region, Table)>,
    /// Per program tag: every cell it stored to, in program order.
    written: Vec<Vec<Cell>>,

    fresh: usize,
}

impl<'p> Encoder<'p> {
    /// Create an encoder over a term pool with the given options.
    pub fn new(pool: &'p mut TermPool, opts: EncodeOptions) -> Encoder<'p> {
        let packet_len = pool.var("in_pkt_len", 64);
        let time_ns = pool.var("in_time_ns", 64);
        let cpu_id = pool.var("in_cpu_id", 64);
        let pid_tgid = pool.var("in_pid_tgid", 64);
        let mut enc = Encoder {
            pool,
            opts,
            packet_len,
            time_ns,
            cpu_id,
            pid_tgid,
            prandom: Vec::new(),
            ucall_returns: Vec::new(),
            constraints: Vec::new(),
            map_defs: HashMap::new(),
            prog_type: None,
            tables: Vec::new(),
            written: Vec::new(),
            fresh: 0,
        };
        // Constrain the packet length to a sane range so that formulas about
        // bounds checks have the same universe as the interpreter.
        let max_len = enc.pool.constant(4096, 64);
        let len_ok = enc.pool.ule(enc.packet_len, max_len);
        enc.constraints.push(len_ok);
        enc
    }

    /// Access the underlying pool.
    pub fn pool(&mut self) -> &mut TermPool {
        self.pool
    }

    /// Read-only access to the underlying pool (e.g. for evaluating model
    /// values during counterexample extraction).
    pub fn pool_ref(&self) -> &TermPool {
        self.pool
    }

    fn fresh_var(&mut self, prefix: &str, width: u32) -> TermId {
        self.fresh += 1;
        let name = format!("{prefix}_{}", self.fresh);
        self.pool.var(name, width)
    }

    /// Fix the context layout to `prog_type`'s and pre-populate the initial
    /// bytes of its pointer slots: `data` and `data_meta` hold [`DATA_PTR`],
    /// `data_end` lies the packet length past it. Input slots are ordinary
    /// cells, read like any other.
    fn seed_context(&mut self, prog_type: ProgramType) {
        self.prog_type = Some(prog_type);
        let data = self.pool.constant(DATA_PTR, 64);
        let data_end = self.pool.add(data, self.packet_len);
        let t = self.table(Region::Context);
        for &(start, size, field) in prog_type.ctx_layout() {
            let word = match field {
                CtxField::Data | CtxField::DataMeta => data,
                CtxField::DataEnd => data_end,
                CtxField::Input(_) => continue,
            };
            for b in 0..size as u32 {
                let offset = (start + b as usize) as i64;
                let cell = Cell {
                    region: Region::Context,
                    term: self.pool.constant(CTX_BASE + offset as u64, 64),
                    offset: Some(offset),
                };
                let value = self.pool.extract(word, b * 8 + 7, b * 8);
                self.tables[t].1.init.push((cell, value));
            }
        }
    }

    // ----- cells --------------------------------------------------------------

    /// The index of the table holding a region's cells, created on first
    /// use. Tables are keyed by region, except that all memory shares one
    /// table with optimization I off.
    fn table(&mut self, region: Region) -> usize {
        let key = match region {
            Region::Stack | Region::Packet | Region::Context
                if !self.opts.memory_type_concretization =>
            {
                Region::Memory
            }
            _ => region,
        };
        match self.tables.iter().position(|(k, _)| *k == key) {
            Some(t) => t,
            None => {
                self.tables.push((key, Table::default()));
                self.tables.len() - 1
            }
        }
    }

    /// [`Encoder::same_cell`] when it is known without building a term:
    /// identical addresses (or keys) are the same cell, and concrete offsets
    /// decide the rest when optimization III is on. A map value byte is part
    /// of the cell, so map cells at different bytes never coincide.
    fn decided_same(&self, a: &Cell, b: &Cell) -> Option<bool> {
        if matches!(a.region, Region::MapValue(_) | Region::MapPresent(_)) {
            if a.offset != b.offset {
                return Some(false);
            }
        } else if let (true, Some(x), Some(y)) =
            (self.opts.offset_concretization, a.offset, b.offset)
        {
            return Some(a.region == b.region && x == y);
        }
        (a.term == b.term).then_some(true)
    }

    /// A 1-bit term that is true iff two cells of one table are the same
    /// byte (or presence bit): decided at compile time when possible,
    /// otherwise the equality of their addresses (or keys).
    fn same_cell(&mut self, a: &Cell, b: &Cell) -> TermId {
        match self.decided_same(a, b) {
            Some(same) => self.pool.constant(u64::from(same), 1),
            None => self.pool.eq(a.term, b.term),
        }
    }

    /// The initial value of a cell, shared by both programs. A cell that is
    /// the same as one read before reuses its value; otherwise the value is
    /// fresh, and for every earlier cell that may be the same an Ackermann
    /// implication ties the two values. Array-map presence is computed: a
    /// key is present iff it is in range.
    fn init_cell(&mut self, t: usize, cell: Cell) -> TermId {
        if let Some(present) = self.array_presence(cell) {
            return present;
        }
        let mut entries = std::mem::take(&mut self.tables[t].1.init);
        let value = match entries
            .iter()
            .find(|(earlier, _)| self.decided_same(earlier, &cell) == Some(true))
        {
            Some(&(_, value)) => value,
            None => {
                let value = self.fresh_var("init", cell.region.width());
                for (earlier, earlier_value) in &entries {
                    let same = self.same_cell(earlier, &cell);
                    if self.pool.as_const(same) == Some(0) {
                        continue;
                    }
                    let values_eq = self.pool.eq(*earlier_value, value);
                    let implied = self.pool.implies(same, values_eq);
                    self.constraints.push(implied);
                }
                entries.push((cell, value));
                value
            }
        };
        self.tables[t].1.init = entries;
        value
    }

    /// Presence of a key in an array-like map: computed, not a cell.
    fn array_presence(&mut self, cell: Cell) -> Option<TermId> {
        let Region::MapPresent(map_id) = cell.region else {
            return None;
        };
        let def = self.map_defs.get(&map_id).copied()?;
        if !matches!(
            def.kind,
            MapKind::Array | MapKind::PerCpuArray | MapKind::DevMap
        ) {
            return None;
        }
        let idx = self.pool.extract(cell.term, 31, 0);
        let max = self.pool.constant(def.max_entries as u64, 32);
        Some(self.pool.ult(idx, max))
    }

    /// The value of a cell as program `tag` sees it now: its latest store
    /// that may hit the cell, falling back to the initial value.
    fn load_cell(&mut self, tag: usize, cell: Cell) -> TermId {
        let t = self.table(cell.region);
        let mut value = self.init_cell(t, cell);
        let stores = std::mem::take(slot(&mut self.tables[t].1.stores, tag));
        for store in &stores {
            let same = self.same_cell(&store.cell, &cell);
            if self.pool.as_const(same) == Some(0) {
                continue;
            }
            let cond = self.pool.and(same, store.pc);
            value = self.pool.ite(cond, store.value, value);
        }
        self.tables[t].1.stores[tag] = stores;
        value
    }

    /// Record that program `tag` stores `value` to a cell under `pc`.
    fn store_cell(&mut self, tag: usize, cell: Cell, value: TermId, pc: TermId) {
        let t = self.table(cell.region);
        let store = Store { cell, value, pc };
        slot(&mut self.tables[t].1.stores, tag).push(store);
        slot(&mut self.written, tag).push(cell);
    }

    /// The cell of the byte at `[base + delta]`, given the base register's
    /// provenance.
    fn cell_at(&mut self, state: &BlockState, base: Reg, delta: i64) -> Result<Cell, EncodeError> {
        let at = |offset: Option<i64>| offset.map(|o| o + delta);
        let (region, offset) = match state.prov[base.index()] {
            Prov::Stack(o) => (Region::Stack, at(o)),
            Prov::Packet(o) => (Region::Packet, at(o)),
            // data_end-relative accesses keep a symbolic offset: their
            // concrete distance from `data` depends on the packet length.
            Prov::PacketEnd(_) => (Region::Packet, None),
            Prov::Ctx(o) => (Region::Context, at(o)),
            Prov::MapValue {
                map_id,
                key,
                offset,
            } => {
                let offset = at(offset).ok_or_else(|| {
                    EncodeError::Unsupported("map value access at unknown offset".into())
                })?;
                return Ok(Cell {
                    region: Region::MapValue(map_id),
                    term: key,
                    offset: Some(offset),
                });
            }
            Prov::None | Prov::MapHandle(_) => {
                return Err(EncodeError::Unsupported(
                    "memory access with unknown pointer provenance".into(),
                ))
            }
        };
        let delta = self.pool.constant(delta as u64, 64);
        let term = self.pool.add(state.regs[base.index()], delta);
        Ok(Cell {
            region,
            term,
            offset,
        })
    }

    /// Load `len` bytes little-endian from `[base + off]`, returning a 64-bit
    /// zero-extended term.
    fn load_bytes(
        &mut self,
        state: &BlockState,
        tag: usize,
        base: Reg,
        off: i64,
        len: usize,
    ) -> Result<TermId, EncodeError> {
        let mut bytes = Vec::with_capacity(len);
        for i in 0..len {
            let cell = self.cell_at(state, base, off + i as i64)?;
            bytes.push(self.load_cell(tag, cell));
        }
        Ok(self.combine_bytes(&bytes))
    }

    /// Store the low `size` bytes of `value` little-endian at `[base + off]`.
    fn store_bytes(
        &mut self,
        state: &BlockState,
        tag: usize,
        base: Reg,
        off: i16,
        size: MemSize,
        value: TermId,
    ) -> Result<(), EncodeError> {
        for i in 0..size.bytes() {
            let cell = self.cell_at(state, base, off as i64 + i as i64)?;
            let byte = self.pool.extract(value, (i as u32) * 8 + 7, (i as u32) * 8);
            self.store_cell(tag, cell, byte, state.pc);
        }
        Ok(())
    }

    /// Assemble little-endian bytes (LSB first) into a zero-extended 64-bit
    /// term.
    fn combine_bytes(&mut self, bytes: &[TermId]) -> TermId {
        let mut value = bytes[0];
        for &b in &bytes[1..] {
            value = self.pool.concat(b, value);
        }
        self.pool.zero_extend(value, 64)
    }

    /// Shared pseudo-random value for the `idx`-th call in program order.
    fn prandom_value(&mut self, idx: usize) -> TermId {
        while self.prandom.len() <= idx {
            let v = self
                .pool
                .var(format!("in_prandom_{}", self.prandom.len()), 64);
            // Only 32 bits are produced by the helper.
            let mask = self.pool.constant(0xffff_ffff, 64);
            let masked = self.pool.and(v, mask);
            self.prandom.push(masked);
        }
        self.prandom[idx]
    }

    fn ucall_return(&mut self, idx: usize) -> TermId {
        while self.ucall_returns.len() <= idx {
            let v = self
                .pool
                .var(format!("in_ucall_ret_{}", self.ucall_returns.len()), 64);
            self.ucall_returns.push(v);
        }
        self.ucall_returns[idx]
    }

    // ----- program encoding ---------------------------------------------------

    /// Encode a complete program. The first program fixes the context
    /// layout; a program of another type is unsupported.
    pub fn encode_program(
        &mut self,
        prog: &Program,
        tag: usize,
    ) -> Result<ProgramEncoding, EncodeError> {
        if self.prog_type.is_none() {
            self.seed_context(prog.prog_type);
        }
        if self.prog_type != Some(prog.prog_type) {
            return Err(EncodeError::Unsupported(
                "programs of different types".into(),
            ));
        }
        for def in &prog.maps {
            self.map_defs.insert(def.id.0, *def);
        }
        let cfg = Cfg::build(&prog.insns).map_err(|e| EncodeError::Cfg(e.to_string()))?;
        let order = cfg.topo_order().ok_or(EncodeError::HasLoop)?;
        self.encode_cfg(&prog.insns, &cfg, &order, tag)
    }

    /// Encode a straight-line window (no jumps, no exits). `start_regs`
    /// provides the register terms at window entry (shared between the two
    /// windows being compared).
    pub fn encode_window(
        &mut self,
        insns: &[Insn],
        maps: &[MapDef],
        start_regs: [TermId; NUM_REGS],
        start_prov_hints: [Option<i64>; NUM_REGS],
        tag: usize,
    ) -> Result<ProgramEncoding, EncodeError> {
        for def in maps {
            self.map_defs.insert(def.id.0, *def);
        }
        if insns.iter().any(|i| i.is_branch()) {
            return Err(EncodeError::Unsupported(
                "window contains a branch or exit".into(),
            ));
        }
        let tt = self.pool.tt();
        let mut prov = [Prov::None; NUM_REGS];
        // Windows get conservative provenance: the frame pointer is a stack
        // pointer; other registers carry an optional concrete stack offset
        // hint inferred by the caller's static analysis.
        prov[Reg::R10.index()] = Prov::Stack(Some(0));
        for (i, hint) in start_prov_hints.iter().enumerate() {
            if let Some(off) = hint {
                prov[i] = Prov::Stack(Some(*off));
            }
        }
        let mut state = BlockState {
            pc: tt,
            regs: start_regs,
            prov,
        };
        let mut ctx = ProgCtx::new(tag);
        for insn in insns {
            self.step(&mut state, insn, &mut ctx)?;
        }
        let zero = self.pool.constant(0, 64);
        Ok(ProgramEncoding {
            tag,
            ret: zero,
            end_regs: Some(state.regs),
            call_log: ctx.call_log,
        })
    }

    fn encode_cfg(
        &mut self,
        insns: &[Insn],
        cfg: &Cfg,
        order: &[usize],
        tag: usize,
    ) -> Result<ProgramEncoding, EncodeError> {
        let tt = self.pool.tt();
        let mut entry_regs = [tt; NUM_REGS];
        let mut entry_prov = [Prov::None; NUM_REGS];
        for r in Reg::ALL {
            entry_regs[r.index()] = match r {
                Reg::R1 => self.pool.constant(CTX_BASE, 64),
                Reg::R10 => self.pool.constant(STACK_TOP, 64),
                _ => self.fresh_var(&format!("p{tag}_uninit_r{}", r.index()), 64),
            };
        }
        entry_prov[Reg::R1.index()] = Prov::Ctx(Some(0));
        entry_prov[Reg::R10.index()] = Prov::Stack(Some(0));

        let mut block_in: Vec<Option<BlockState>> = vec![None; cfg.blocks.len()];
        block_in[0] = Some(BlockState {
            pc: tt,
            regs: entry_regs,
            prov: entry_prov,
        });

        let mut exits: Vec<(TermId, TermId)> = Vec::new();
        let mut ctx = ProgCtx::new(tag);

        for &bi in order {
            let Some(state0) = block_in[bi].clone() else {
                continue;
            };
            let mut state = state0;
            let block = cfg.blocks[bi].clone();
            for idx in block.range() {
                let insn = insns[idx];
                match insn {
                    Insn::Exit => {
                        exits.push((state.pc, state.regs[Reg::R0.index()]));
                    }
                    Insn::Ja { .. } | Insn::Jmp { .. } | Insn::Jmp32 { .. } => {}
                    _ => self.step(&mut state, &insn, &mut ctx)?,
                }
            }
            // Propagate to successors.
            let last_idx = block.end - 1;
            let last = insns[last_idx];
            match last {
                Insn::Exit => {}
                Insn::Ja { .. } => {
                    let target =
                        cfg.block_of_insn[last.jump_target(last_idx).expect("ja target") as usize];
                    self.merge_into(&mut block_in, target, &state, None);
                }
                Insn::Jmp { op, dst, src, .. } | Insn::Jmp32 { op, dst, src, .. } => {
                    let is32 = matches!(last, Insn::Jmp32 { .. });
                    let cond = self.jump_cond(&state, op, dst, src, is32);
                    let not_cond = self.pool.not(cond);
                    let taken =
                        cfg.block_of_insn[last.jump_target(last_idx).expect("jmp target") as usize];
                    self.merge_into(&mut block_in, taken, &state, Some(cond));
                    if block.end < insns.len() {
                        let ft = cfg.block_of_insn[block.end];
                        self.merge_into(&mut block_in, ft, &state, Some(not_cond));
                    }
                }
                _ => {
                    if block.end < insns.len() {
                        let ft = cfg.block_of_insn[block.end];
                        self.merge_into(&mut block_in, ft, &state, None);
                    }
                }
            }
        }

        // Merge exit values.
        let zero = self.pool.constant(0, 64);
        let mut ret = zero;
        for (pc, r0) in exits.iter().rev() {
            ret = self.pool.ite(*pc, *r0, ret);
        }
        Ok(ProgramEncoding {
            tag,
            ret,
            end_regs: None,
            call_log: ctx.call_log,
        })
    }

    fn merge_into(
        &mut self,
        block_in: &mut [Option<BlockState>],
        target: usize,
        state: &BlockState,
        edge_cond: Option<TermId>,
    ) {
        let contrib_pc = match edge_cond {
            Some(c) => self.pool.and(state.pc, c),
            None => state.pc,
        };
        let merged = match block_in[target].take() {
            None => BlockState {
                pc: contrib_pc,
                regs: state.regs,
                prov: state.prov,
            },
            Some(existing) => {
                let mut merged = existing.clone();
                merged.pc = self.pool.or(existing.pc, contrib_pc);
                for i in 0..NUM_REGS {
                    merged.regs[i] = self.pool.ite(contrib_pc, state.regs[i], existing.regs[i]);
                    merged.prov[i] = existing.prov[i].join(state.prov[i]);
                }
                merged
            }
        };
        block_in[target] = Some(merged);
    }

    fn jump_cond(
        &mut self,
        state: &BlockState,
        op: JmpOp,
        dst: Reg,
        src: Src,
        is32: bool,
    ) -> TermId {
        let d_full = state.regs[dst.index()];
        let s_full = self.operand(state, src);
        let (d, s) = if is32 {
            (
                self.pool.extract(d_full, 31, 0),
                self.pool.extract(s_full, 31, 0),
            )
        } else {
            (d_full, s_full)
        };
        match op {
            JmpOp::Eq => self.pool.eq(d, s),
            JmpOp::Ne => self.pool.ne(d, s),
            JmpOp::Gt => self.pool.ugt(d, s),
            JmpOp::Ge => self.pool.uge(d, s),
            JmpOp::Lt => self.pool.ult(d, s),
            JmpOp::Le => self.pool.ule(d, s),
            JmpOp::Sgt => self.pool.sgt(d, s),
            JmpOp::Sge => self.pool.sge(d, s),
            JmpOp::Slt => self.pool.slt(d, s),
            JmpOp::Sle => self.pool.sle(d, s),
            JmpOp::Set => {
                let anded = self.pool.and(d, s);
                let zero = self.pool.constant(0, if is32 { 32 } else { 64 });
                self.pool.ne(anded, zero)
            }
        }
    }

    fn operand(&mut self, state: &BlockState, src: Src) -> TermId {
        match src {
            Src::Reg(r) => state.regs[r.index()],
            Src::Imm(i) => self.pool.constant(i as i64 as u64, 64),
        }
    }

    fn operand_prov(&self, state: &BlockState, src: Src) -> Prov {
        match src {
            Src::Reg(r) => state.prov[r.index()],
            Src::Imm(_) => Prov::None,
        }
    }

    /// Execute one non-control-flow instruction symbolically.
    fn step(
        &mut self,
        state: &mut BlockState,
        insn: &Insn,
        ctx: &mut ProgCtx,
    ) -> Result<(), EncodeError> {
        let tag = ctx.tag;
        match *insn {
            Insn::Alu64 { op, dst, src } => {
                let d = state.regs[dst.index()];
                let s = self.operand(state, src);
                let result = self.alu(op, d, s);
                let s_prov = self.operand_prov(state, src);
                let s_const = self.pool.as_const(s).map(|v| v as i64);
                state.prov[dst.index()] = match op {
                    AluOp::Mov => s_prov,
                    AluOp::Add => match (state.prov[dst.index()], s_prov) {
                        (
                            p @ (Prov::Stack(_)
                            | Prov::Packet(_)
                            | Prov::PacketEnd(_)
                            | Prov::Ctx(_)
                            | Prov::MapValue { .. }),
                            Prov::None,
                        ) => p.add_offset(s_const),
                        (
                            Prov::None,
                            p @ (Prov::Stack(_)
                            | Prov::Packet(_)
                            | Prov::PacketEnd(_)
                            | Prov::Ctx(_)),
                        ) => {
                            let d_const = self.pool.as_const(d).map(|v| v as i64);
                            p.add_offset(d_const)
                        }
                        _ => Prov::None,
                    },
                    AluOp::Sub => match state.prov[dst.index()] {
                        p @ (Prov::Stack(_)
                        | Prov::Packet(_)
                        | Prov::PacketEnd(_)
                        | Prov::Ctx(_)
                        | Prov::MapValue { .. })
                            if s_prov == Prov::None =>
                        {
                            p.add_offset(s_const.map(|c| -c))
                        }
                        _ => Prov::None,
                    },
                    _ => Prov::None,
                };
                state.regs[dst.index()] = result;
            }
            Insn::Alu32 { op, dst, src } => {
                let d = state.regs[dst.index()];
                let s = self.operand(state, src);
                let d32 = self.pool.extract(d, 31, 0);
                let s32 = self.pool.extract(s, 31, 0);
                let r32 = self.alu(op, d32, s32);
                state.regs[dst.index()] = self.pool.zero_extend(r32, 64);
                state.prov[dst.index()] = Prov::None;
            }
            Insn::Endian { order, width, dst } => {
                let d = state.regs[dst.index()];
                let result = self.endian(order, width, d);
                state.regs[dst.index()] = result;
                state.prov[dst.index()] = Prov::None;
            }
            Insn::Load {
                size,
                dst,
                base,
                off,
            } => {
                let value = self.load_bytes(state, tag, base, off as i64, size.bytes())?;
                // Track the packet pointers the context layout declares.
                let new_prov = match (state.prov[base.index()], self.prog_type) {
                    (Prov::Ctx(Some(c)), Some(t)) => match t.ctx_load(c + off as i64, size) {
                        CtxLoad::Packet => Prov::Packet(Some(0)),
                        CtxLoad::PacketEnd => Prov::PacketEnd(Some(0)),
                        CtxLoad::Scalar => Prov::None,
                    },
                    _ => Prov::None,
                };
                state.regs[dst.index()] = value;
                state.prov[dst.index()] = new_prov;
            }
            Insn::Store {
                size,
                base,
                off,
                src,
            } => {
                let value = state.regs[src.index()];
                self.store_bytes(state, tag, base, off, size, value)?;
            }
            Insn::StoreImm {
                size,
                base,
                off,
                imm,
            } => {
                let value = self.pool.constant(imm as i64 as u64, 64);
                self.store_bytes(state, tag, base, off, size, value)?;
            }
            Insn::AtomicAdd {
                size,
                base,
                off,
                src,
            } => {
                let old = self.load_bytes(state, tag, base, off as i64, size.bytes())?;
                let addend = state.regs[src.index()];
                let new = if size == MemSize::Word {
                    let o32 = self.pool.extract(old, 31, 0);
                    let a32 = self.pool.extract(addend, 31, 0);
                    let s = self.pool.add(o32, a32);
                    self.pool.zero_extend(s, 64)
                } else {
                    self.pool.add(old, addend)
                };
                self.store_bytes(state, tag, base, off, size, new)?;
            }
            Insn::LoadImm64 { dst, imm } => {
                state.regs[dst.index()] = self.pool.constant(imm as u64, 64);
                state.prov[dst.index()] = Prov::None;
            }
            Insn::LoadMapFd { dst, map_id } => {
                state.regs[dst.index()] = self
                    .pool
                    .constant(bpf_interp::layout::map_handle(map_id), 64);
                state.prov[dst.index()] = Prov::MapHandle(map_id);
            }
            Insn::Call { helper } => {
                self.encode_call(state, helper, ctx)?;
            }
            Insn::Nop | Insn::Ja { .. } | Insn::Jmp { .. } | Insn::Jmp32 { .. } | Insn::Exit => {}
        }
        Ok(())
    }

    fn encode_call(
        &mut self,
        state: &mut BlockState,
        helper: HelperId,
        ctx: &mut ProgCtx,
    ) -> Result<(), EncodeError> {
        let tag = ctx.tag;
        let pc = state.pc;
        let r0 = match helper {
            HelperId::MapLookup | HelperId::MapUpdate | HelperId::MapDelete => {
                let map_id = match state.prov[Reg::R1.index()] {
                    Prov::MapHandle(id) => id,
                    _ => {
                        return Err(EncodeError::Unsupported(
                            "map helper call without a statically known map".into(),
                        ))
                    }
                };
                let def = self
                    .map_defs
                    .get(&map_id)
                    .copied()
                    .ok_or_else(|| EncodeError::Unsupported("undeclared map".into()))?;
                if def.key_size > 8 || def.value_size > 64 {
                    return Err(EncodeError::Unsupported("map key/value too large".into()));
                }
                let key = self.load_bytes(state, tag, Reg::R2, 0, def.key_size as usize)?;
                let presence = Cell {
                    region: Region::MapPresent(map_id),
                    term: key,
                    offset: None,
                };
                match helper {
                    HelperId::MapLookup => {
                        let present = self.load_cell(tag, presence);
                        let nonnull = self.pool.constant(MAP_VALUE_PTR, 64);
                        let null = self.pool.constant(0, 64);
                        let ptr = self.pool.ite(present, nonnull, null);
                        state.prov[Reg::R0.index()] = Prov::MapValue {
                            map_id,
                            key,
                            offset: Some(0),
                        };
                        ptr
                    }
                    HelperId::MapUpdate => {
                        // Copy the new value bytes from r3 into the map value,
                        // then mark the key present.
                        for i in 0..def.value_size as i64 {
                            let from = self.cell_at(state, Reg::R3, i)?;
                            let byte = self.load_cell(tag, from);
                            let to = Cell {
                                region: Region::MapValue(map_id),
                                term: key,
                                offset: Some(i),
                            };
                            self.store_cell(tag, to, byte, pc);
                        }
                        let tt = self.pool.tt();
                        self.store_cell(tag, presence, tt, pc);
                        state.prov[Reg::R0.index()] = Prov::None;
                        self.pool.constant(0, 64)
                    }
                    HelperId::MapDelete => {
                        let present = self.load_cell(tag, presence);
                        let ff = self.pool.ff();
                        self.store_cell(tag, presence, ff, pc);
                        let ok = self.pool.constant(0, 64);
                        let enoent = self.pool.constant((-2i64) as u64, 64);
                        state.prov[Reg::R0.index()] = Prov::None;
                        self.pool.ite(present, ok, enoent)
                    }
                    _ => unreachable!(),
                }
            }
            HelperId::KtimeGetNs => {
                state.prov[Reg::R0.index()] = Prov::None;
                self.time_ns
            }
            HelperId::GetPrandomU32 => {
                let idx = ctx.prandom_calls;
                ctx.prandom_calls += 1;
                state.prov[Reg::R0.index()] = Prov::None;
                self.prandom_value(idx)
            }
            HelperId::GetSmpProcessorId => {
                state.prov[Reg::R0.index()] = Prov::None;
                let mask = self.pool.constant(0xffff_ffff, 64);
                self.pool.and(self.cpu_id, mask)
            }
            HelperId::GetCurrentPidTgid => {
                state.prov[Reg::R0.index()] = Prov::None;
                self.pid_tgid
            }
            HelperId::XdpAdjustHead => {
                return Err(EncodeError::Unsupported(
                    "xdp_adjust_head moves the packet head, which is not modelled".into(),
                ))
            }
            _ => {
                // Uninterpreted helper: record the call, return a shared value
                // keyed by call order.
                let num_args = helper.num_args().min(5);
                let args: Vec<TermId> = (0..num_args)
                    .map(|i| state.regs[Reg::R1.index() + i])
                    .collect();
                ctx.call_log.push(CallRecord { helper, args, pc });
                let idx = ctx.ucalls;
                ctx.ucalls += 1;
                state.prov[Reg::R0.index()] = Prov::None;
                self.ucall_return(idx)
            }
        };
        state.regs[Reg::R0.index()] = r0;
        // Clobber caller-saved registers with fresh values.
        for r in [Reg::R1, Reg::R2, Reg::R3, Reg::R4, Reg::R5] {
            state.regs[r.index()] = self.fresh_var(&format!("p{tag}_clobber_r{}", r.index()), 64);
            state.prov[r.index()] = Prov::None;
        }
        Ok(())
    }

    /// One ALU operation on operands of equal width (64 or 32 bits).
    fn alu(&mut self, op: AluOp, d: TermId, s: TermId) -> TermId {
        match op {
            AluOp::Add => self.pool.add(d, s),
            AluOp::Sub => self.pool.sub(d, s),
            AluOp::Mul => self.pool.mul(d, s),
            AluOp::Div => self.pool.udiv(d, s),
            AluOp::Or => self.pool.or(d, s),
            AluOp::And => self.pool.and(d, s),
            AluOp::Lsh => self.pool.shl(d, s),
            AluOp::Rsh => self.pool.lshr(d, s),
            AluOp::Neg => self.pool.neg(d),
            AluOp::Mod => self.pool.urem(d, s),
            AluOp::Xor => self.pool.xor(d, s),
            AluOp::Mov => s,
            AluOp::Arsh => self.pool.ashr(d, s),
        }
    }

    fn endian(&mut self, order: ByteOrder, width: u32, d: TermId) -> TermId {
        let low = self.pool.extract(d, width - 1, 0);
        match order {
            ByteOrder::Little => self.pool.zero_extend(low, 64),
            ByteOrder::Big => {
                let nbytes = width / 8;
                let mut swapped = None;
                // Reassemble with bytes reversed: the original MSB byte
                // becomes the new LSB byte.
                for i in 0..nbytes {
                    let byte = self.pool.extract(low, i * 8 + 7, i * 8);
                    swapped = Some(match swapped {
                        None => byte,
                        Some(acc) => self.pool.concat(acc, byte),
                    });
                }
                let sw = swapped.expect("width >= 8");
                self.pool.zero_extend(sw, 64)
            }
        }
    }

    // ----- output comparison --------------------------------------------------

    /// Build a 1-bit term that is true iff the observable outputs of the two
    /// encoded programs differ: the return value and the final packet bytes,
    /// map values and map presence either program wrote (and, for windows,
    /// every end-of-window register).
    pub fn output_difference(&mut self, a: &ProgramEncoding, b: &ProgramEncoding) -> TermId {
        let mut disjuncts = vec![self.pool.ne(a.ret, b.ret)];
        self.written_cells_differ(a.tag, b.tag, None, &mut disjuncts);
        if let (Some(ra), Some(rb)) = (a.end_regs, b.end_regs) {
            for i in 0..NUM_REGS {
                disjuncts.push(self.pool.ne(ra[i], rb[i]));
            }
        }
        self.pool.or_many(&disjuncts)
    }

    /// Push `final value in a != final value in b` for every observed cell
    /// either program wrote, each cell once, in the order they were written.
    fn written_cells_differ(
        &mut self,
        a: usize,
        b: usize,
        live_stack: Option<&[i16]>,
        disjuncts: &mut Vec<TermId>,
    ) {
        let mut seen = HashSet::new();
        let cells: Vec<Cell> = [a, b]
            .iter()
            .flat_map(|&tag| self.written.get(tag).into_iter().flatten())
            .filter(|cell| cell.observed(live_stack) && seen.insert(**cell))
            .copied()
            .collect();
        for cell in cells {
            let fa = self.load_cell(a, cell);
            let fb = self.load_cell(b, cell);
            disjuncts.push(self.pool.ne(fa, fb));
        }
    }

    /// Build a 1-bit term that is true iff the two programs' uninterpreted
    /// call logs are compatible (same calls, same arguments, under the same
    /// path conditions). Returns `None` when the logs cannot match at all
    /// (different lengths or helpers), in which case the programs must be
    /// treated as not equivalent.
    pub fn call_logs_compatible(
        &mut self,
        a: &ProgramEncoding,
        b: &ProgramEncoding,
    ) -> Option<TermId> {
        if a.call_log.len() != b.call_log.len() {
            return None;
        }
        let mut conjuncts = Vec::new();
        for (ca, cb) in a.call_log.iter().zip(&b.call_log) {
            if ca.helper != cb.helper || ca.args.len() != cb.args.len() {
                return None;
            }
            conjuncts.push(self.pool.eq(ca.pc, cb.pc));
            for (&x, &y) in ca.args.iter().zip(&cb.args) {
                let eq = self.pool.eq(x, y);
                let guarded = self.pool.implies(ca.pc, eq);
                conjuncts.push(guarded);
            }
        }
        Some(self.pool.and_many(&conjuncts))
    }

    /// Compare the output of two windows: only the given live-out registers
    /// and the stack bytes still live after the window must agree (weaker
    /// postcondition, §5.IV); packet and map effects are always compared.
    pub fn window_output_difference(
        &mut self,
        a: &ProgramEncoding,
        b: &ProgramEncoding,
        live_out: &[Reg],
        live_stack_out: &[i16],
    ) -> TermId {
        let mut disjuncts = Vec::new();
        if let (Some(ra), Some(rb)) = (a.end_regs, b.end_regs) {
            for r in live_out {
                disjuncts.push(self.pool.ne(ra[r.index()], rb[r.index()]));
            }
        }
        self.written_cells_differ(a.tag, b.tag, Some(live_stack_out), &mut disjuncts);
        self.pool.or_many(&disjuncts)
    }

    /// Every cell whose initial value the formula read, with that value
    /// (used by counterexample extraction).
    pub(crate) fn init_cells(&self) -> impl Iterator<Item = &(Cell, TermId)> + '_ {
        self.tables.iter().flat_map(|(_, table)| &table.init)
    }

    /// Definition of a map as seen by the encoder.
    pub fn map_def(&self, map_id: u32) -> Option<MapDef> {
        self.map_defs.get(&map_id).copied()
    }
}

/// Per-program bookkeeping during encoding.
struct ProgCtx {
    tag: usize,
    call_log: Vec<CallRecord>,
    prandom_calls: usize,
    ucalls: usize,
}

impl ProgCtx {
    fn new(tag: usize) -> ProgCtx {
        ProgCtx {
            tag,
            call_log: Vec::new(),
            prandom_calls: 0,
            ucalls: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitsmt::{CheckResult, Solver};
    use bpf_isa::{asm, ProgramType};

    fn encode_pair(src: &str, cand: &str) -> (TermPool, TermId, Vec<TermId>) {
        let p1 = Program::new(ProgramType::Xdp, asm::assemble(src).unwrap());
        let p2 = Program::new(ProgramType::Xdp, asm::assemble(cand).unwrap());
        let mut pool = TermPool::new();
        let mut enc = Encoder::new(&mut pool, EncodeOptions::default());
        let e1 = enc.encode_program(&p1, 0).unwrap();
        let e2 = enc.encode_program(&p2, 1).unwrap();
        let diff = enc.output_difference(&e1, &e2);
        let constraints = enc.constraints.clone();
        (pool, diff, constraints)
    }

    fn equivalent(src: &str, cand: &str) -> bool {
        let (mut pool, diff, constraints) = encode_pair(src, cand);
        let mut solver = Solver::new(&mut pool);
        for c in constraints {
            solver.assert(c);
        }
        solver.assert(diff);
        matches!(solver.check(), CheckResult::Unsat)
    }

    #[test]
    fn identical_programs_are_equivalent() {
        let p = "mov64 r0, 1\nexit";
        assert!(equivalent(p, p));
    }

    #[test]
    fn constant_folding_rewrite_is_equivalent() {
        let src = "mov64 r0, 5\nadd64 r0, 7\nexit";
        let cand = "mov64 r0, 12\nexit";
        assert!(equivalent(src, cand));
    }

    #[test]
    fn different_constants_are_not_equivalent() {
        let src = "mov64 r0, 5\nexit";
        let cand = "mov64 r0, 6\nexit";
        assert!(!equivalent(src, cand));
    }

    #[test]
    fn mul_vs_shift_is_equivalent() {
        let src =
            "ldxdw r2, [r1+0]\nldxdw r3, [r1+8]\nmov64 r0, r3\nsub64 r0, r2\nmul64 r0, 4\nexit";
        let cand =
            "ldxdw r2, [r1+0]\nldxdw r3, [r1+8]\nmov64 r0, r3\nsub64 r0, r2\nlsh64 r0, 2\nexit";
        assert!(equivalent(src, cand));
    }

    #[test]
    fn branch_dependent_result_checked_on_both_paths() {
        // r0 = (len == 0) ? 1 : 2 in two different shapes.
        let src = r"
            ldxdw r2, [r1+0]
            ldxdw r3, [r1+8]
            mov64 r0, 2
            jne r2, r3, +1
            mov64 r0, 1
            exit
        ";
        let cand = r"
            ldxdw r2, [r1+0]
            ldxdw r3, [r1+8]
            mov64 r0, 1
            jeq r2, r3, +1
            mov64 r0, 2
            exit
        ";
        assert!(equivalent(src, cand));
        // And a subtly wrong candidate is caught.
        let wrong = r"
            ldxdw r2, [r1+0]
            ldxdw r3, [r1+8]
            mov64 r0, 1
            jne r2, r3, +1
            mov64 r0, 2
            exit
        ";
        assert!(!equivalent(src, wrong));
    }

    #[test]
    fn stack_spill_reload_is_equivalent_to_register_move() {
        let src = r"
            mov64 r6, 77
            stxdw [r10-8], r6
            ldxdw r0, [r10-8]
            exit
        ";
        let cand = "mov64 r0, 77\nexit";
        assert!(equivalent(src, cand));
    }

    #[test]
    fn store_coalescing_is_equivalent() {
        // The paper's xdp_pktcntr example: mov 0 + two 32-bit stores vs one
        // 64-bit immediate store. Output visibility comes through a later
        // load of both words.
        let src = r"
            mov64 r1, 0
            stxw [r10-4], r1
            stxw [r10-8], r1
            ldxdw r0, [r10-8]
            exit
        ";
        let cand = r"
            stdw [r10-8], 0
            ldxdw r0, [r10-8]
            exit
        ";
        assert!(equivalent(src, cand));
    }

    #[test]
    fn packet_write_differences_are_detected() {
        let src = r"
            ldxdw r2, [r1+0]
            ldxdw r3, [r1+8]
            mov64 r4, r2
            add64 r4, 2
            mov64 r0, 1
            jgt r4, r3, +1
            stb [r2+0], 7
            exit
        ";
        let cand_same = src;
        let cand_diff = r"
            ldxdw r2, [r1+0]
            ldxdw r3, [r1+8]
            mov64 r4, r2
            add64 r4, 2
            mov64 r0, 1
            jgt r4, r3, +1
            stb [r2+0], 8
            exit
        ";
        assert!(equivalent(src, cand_same));
        assert!(!equivalent(src, cand_diff));
    }

    #[test]
    fn dead_store_elimination_is_equivalent() {
        let src = r"
            mov64 r2, 3
            stxdw [r10-16], r2
            mov64 r0, 0
            exit
        ";
        let cand = "mov64 r0, 0\nexit";
        // The stack is private post-exit state: removing a dead stack store
        // does not change observable outputs.
        assert!(equivalent(src, cand));
    }

    #[test]
    fn alu32_zero_extension_matters() {
        let src = "lddw r2, 0xffffffff00000005\nmov64 r0, r2\nexit";
        let cand = "lddw r2, 0xffffffff00000005\nmov32 r0, r2\nexit";
        assert!(!equivalent(src, cand));
    }

    #[test]
    fn a_program_against_itself_shares_every_initial_read() {
        // Context, packet (at a concrete and at a data_end-relative
        // address), stack and map reads of the second copy are the cells the
        // first copy read: they reuse its variables, add no implication, and
        // the miter folds to false before any solving.
        let text = r"
            ldxdw r2, [r1+0]
            ldxdw r3, [r1+8]
            ldxw r5, [r2+0]
            ldxb r6, [r3-1]
            add64 r5, r6
            stxw [r10-4], r5
            ld_map_fd r1, 0
            mov64 r2, r10
            add64 r2, -4
            call map_lookup_elem
            jeq r0, 0, +1
            ldxdw r0, [r0+0]
            exit
        ";
        let prog = Program::with_maps(
            ProgramType::Xdp,
            asm::assemble(text).unwrap(),
            vec![MapDef::hash(0, 4, 8, 16)],
        );
        let mut pool = TermPool::new();
        let mut enc = Encoder::new(&mut pool, EncodeOptions::default());
        let a = enc.encode_program(&prog, 0).unwrap();
        let constraints = enc.constraints.len();
        let b = enc.encode_program(&prog, 1).unwrap();
        assert_eq!(enc.constraints.len(), constraints);
        let diff = enc.output_difference(&a, &b);
        assert_eq!(enc.pool().as_const(diff), Some(0));
    }

    #[test]
    fn loop_is_rejected() {
        let insns = vec![
            Insn::mov64_imm(Reg::R0, 0),
            Insn::jmp_imm(JmpOp::Lt, Reg::R0, 10, -2),
            Insn::Exit,
        ];
        let p = Program::new(ProgramType::Xdp, insns);
        let mut pool = TermPool::new();
        let mut enc = Encoder::new(&mut pool, EncodeOptions::default());
        assert!(matches!(
            enc.encode_program(&p, 0),
            Err(EncodeError::HasLoop)
        ));
    }

    #[test]
    fn unknown_provenance_is_unsupported() {
        // Dereferencing an arbitrary constant address cannot be encoded.
        let p = Program::new(
            ProgramType::Xdp,
            asm::assemble("lddw r2, 0x12345678\nldxdw r0, [r2+0]\nexit").unwrap(),
        );
        let mut pool = TermPool::new();
        let mut enc = Encoder::new(&mut pool, EncodeOptions::default());
        assert!(matches!(
            enc.encode_program(&p, 0),
            Err(EncodeError::Unsupported(_))
        ));
    }
}
