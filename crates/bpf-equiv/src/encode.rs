//! Symbolic encoding of BPF programs into bit-vector formulas.
//!
//! [`Encoder`] owns the shared input variables (packet length, packet bytes,
//! context, initial map state, timestamps, ...) and the per-program memory /
//! map tables. Encoding the source program and a candidate program against
//! the *same* encoder makes them read the same inputs, which is exactly the
//! "inputs to program 1 == inputs to program 2" premise of the paper's
//! equivalence query (§4).

use bitsmt::{TermId, TermPool};
use bpf_analysis::cfg::Cfg;
use bpf_interp::layout::{CTX_BASE, PACKET_BASE, PACKET_HEADROOM, STACK_BASE};
use bpf_isa::{
    AluOp, ByteOrder, HelperId, Insn, JmpOp, MapDef, MapKind, MemSize, Program, Reg, Src, NUM_REGS,
    STACK_SIZE,
};
use std::collections::HashMap;
use std::fmt;

/// The packet `data` pointer used in formulas (headroom already applied).
pub const DATA_PTR: u64 = PACKET_BASE + PACKET_HEADROOM as u64;

/// The value of `r10` in formulas.
pub const STACK_TOP: u64 = STACK_BASE + STACK_SIZE as u64;

/// A placeholder non-null pointer returned by successful map lookups.
/// Its numeric value never matters: map value accesses are resolved by key,
/// not by pointer arithmetic.
pub const MAP_VALUE_PTR: u64 = 0x0030_0000;

/// One initial map-value read: (map id, key term, byte offset, value term).
pub type MapValueRead = (u32, TermId, i64, TermId);

/// One initial map-presence read: (map id, key term, presence term).
pub type MapPresenceRead = (u32, TermId, TermId);

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

/// Which of the paper's concretization optimizations are enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncodeOptions {
    /// Optimization I: separate read/write tables per memory region.
    pub memory_type_concretization: bool,
    /// Optimization II: separate map tables per map id.
    pub map_concretization: bool,
    /// Optimization III: resolve address comparisons at compile time when
    /// both offsets are statically known.
    pub offset_concretization: bool,
}

impl Default for EncodeOptions {
    fn default() -> Self {
        EncodeOptions {
            memory_type_concretization: true,
            map_concretization: true,
            offset_concretization: true,
        }
    }
}

/// Key of a memory read/write table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum MemKey {
    /// All non-map memory in one table (optimization I disabled).
    Unified,
    /// The stack. Initial contents are shared between the two programs
    /// (harmless: safe programs never read uninitialized stack, and windows
    /// genuinely share the stack the common prefix produced).
    Stack,
    /// The shared packet buffer.
    Packet,
    /// The shared, read-only context.
    Context,
}

/// Key of a map table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum MapKey {
    /// All maps in one table (optimization II disabled).
    Unified,
    /// One table per map id.
    Map(u32),
}

/// Region tag used for compile-time offset comparison (optimization III).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RegionTag {
    Stack,
    Packet,
    Context,
}

/// A symbolic byte address: always a 64-bit term, plus a concrete
/// region-relative offset when statically known.
#[derive(Debug, Clone, Copy)]
struct SymAddr {
    term: TermId,
    concrete: Option<(RegionTag, i64)>,
}

/// One byte store in a memory table.
#[derive(Debug, Clone, Copy)]
struct StoreEntry {
    addr: SymAddr,
    value: TermId,
    pc: TermId,
}

/// One byte of initial memory observed by a load.
#[derive(Debug, Clone, Copy)]
struct InitRead {
    addr: SymAddr,
    value: TermId,
}

/// One byte store to a map value.
#[derive(Debug, Clone, Copy)]
struct MapValueStore {
    map_id: u32,
    key: TermId,
    offset: i64,
    value: TermId,
    pc: TermId,
}

/// One byte of an initial map value observed by a load.
#[derive(Debug, Clone, Copy)]
struct MapInitValue {
    map_id: u32,
    key: TermId,
    offset: i64,
    value: TermId,
}

/// A map presence-changing (or querying) operation.
#[derive(Debug, Clone, Copy)]
struct MapOp {
    map_id: u32,
    key: TermId,
    pc: TermId,
    kind: MapOpKind,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MapOpKind {
    Update,
    Delete,
}

/// Initial presence of a key in a map.
#[derive(Debug, Clone, Copy)]
struct MapInitPresent {
    map_id: u32,
    key: TermId,
    present: TermId,
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

/// An observable store performed by a program (used for the final-state
/// part of the output comparison).
#[derive(Debug, Clone, Copy)]
pub enum OutputStore {
    /// A byte written into the packet at the given symbolic address.
    Packet {
        /// The address (term carried inside the encoder's tables).
        addr_index: usize,
    },
    /// A byte written into a map value.
    MapValue {
        /// Index into the encoder's map store list for this program.
        store_index: usize,
    },
    /// A key whose presence may have changed.
    MapPresence {
        /// Index into the encoder's map op list for this program.
        op_index: usize,
    },
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
    /// Observable stores for the final-state comparison.
    pub output_stores: Vec<OutputStore>,
}

/// The encoder: shared inputs, per-program tables, accumulated constraints.
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

    // Shared initial state.
    init_reads: HashMap<MemKey, Vec<InitRead>>,
    init_map_values: HashMap<MapKey, Vec<MapInitValue>>,
    init_map_present: HashMap<MapKey, Vec<MapInitPresent>>,

    // Per-program state, keyed by (tag, table).
    stores: HashMap<(usize, MemKey), Vec<StoreEntry>>,
    map_value_stores: HashMap<(usize, MapKey), Vec<MapValueStore>>,
    map_ops: HashMap<(usize, MapKey), Vec<MapOp>>,
    // Flat per-program lists referenced by OutputStore indices.
    packet_stores_flat: HashMap<usize, Vec<StoreEntry>>,
    stack_stores_flat: HashMap<usize, Vec<StoreEntry>>,
    map_stores_flat: HashMap<usize, Vec<MapValueStore>>,
    map_ops_flat: HashMap<usize, Vec<MapOp>>,

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
            init_reads: HashMap::new(),
            init_map_values: HashMap::new(),
            init_map_present: HashMap::new(),
            stores: HashMap::new(),
            map_value_stores: HashMap::new(),
            map_ops: HashMap::new(),
            packet_stores_flat: HashMap::new(),
            stack_stores_flat: HashMap::new(),
            map_stores_flat: HashMap::new(),
            map_ops_flat: HashMap::new(),
            fresh: 0,
        };
        // Constrain the packet length to a sane range so that formulas about
        // bounds checks have the same universe as the interpreter.
        let max_len = enc.pool.constant(4096, 64);
        let len_ok = enc.pool.ule(enc.packet_len, max_len);
        enc.constraints.push(len_ok);
        enc.seed_context();
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

    /// Pre-populate the context's initial bytes: `data` and `data_end`
    /// pointers derived from the packet length, `data_meta == data`, and a
    /// shared opaque word for the remaining fields.
    fn seed_context(&mut self) {
        let key = self.ctx_key();
        let data = self.pool.constant(DATA_PTR, 64);
        let len = self.packet_len;
        let data_end = self.pool.add(data, len);
        let extra = self.pool.var("in_ctx_extra", 64);
        let words = [data, data_end, data, extra];
        for (wi, word) in words.into_iter().enumerate() {
            for b in 0..8u32 {
                let off = wi as i64 * 8 + b as i64;
                let addr_term = self.pool.constant(CTX_BASE + off as u64, 64);
                let value = self.pool.extract(word, b * 8 + 7, b * 8);
                let addr = SymAddr {
                    term: addr_term,
                    concrete: Some((RegionTag::Context, off)),
                };
                self.init_reads
                    .entry(key)
                    .or_default()
                    .push(InitRead { addr, value });
            }
        }
    }

    fn ctx_key(&self) -> MemKey {
        if self.opts.memory_type_concretization {
            MemKey::Context
        } else {
            MemKey::Unified
        }
    }

    fn mem_key(&self, _tag: usize, region: RegionTag) -> MemKey {
        if !self.opts.memory_type_concretization {
            return MemKey::Unified;
        }
        match region {
            RegionTag::Stack => MemKey::Stack,
            RegionTag::Packet => MemKey::Packet,
            RegionTag::Context => MemKey::Context,
        }
    }

    fn map_key(&self, map_id: u32) -> MapKey {
        if self.opts.map_concretization {
            MapKey::Map(map_id)
        } else {
            MapKey::Unified
        }
    }

    // ----- address helpers --------------------------------------------------

    /// Compare two symbolic addresses, resolving at compile time when both
    /// offsets are concrete and optimization III is enabled.
    fn addr_eq(&mut self, a: SymAddr, b: SymAddr) -> TermId {
        if self.opts.offset_concretization {
            if let (Some((ra, oa)), Some((rb, ob))) = (a.concrete, b.concrete) {
                return if ra == rb && oa == ob {
                    self.pool.tt()
                } else {
                    self.pool.ff()
                };
            }
        }
        self.pool.eq(a.term, b.term)
    }

    // ----- byte-granular memory ---------------------------------------------

    /// Read one byte of initial memory at `addr` in the table `key`,
    /// creating aliasing constraints with previously observed initial bytes.
    fn init_read(&mut self, key: MemKey, addr: SymAddr) -> TermId {
        let entries = self.init_reads.entry(key).or_default().clone();
        // Exact concrete hit: reuse the existing variable, no constraints.
        if self.opts.offset_concretization {
            if let Some(c) = addr.concrete {
                for e in &entries {
                    if e.addr.concrete == Some(c) {
                        return e.value;
                    }
                }
            }
        }
        let value = self.fresh_var("init_mem", 8);
        for e in &entries {
            let same = self.addr_eq(e.addr, addr);
            if self.pool.as_const(same) == Some(0) {
                continue;
            }
            let val_eq = self.pool.eq(e.value, value);
            let implied = self.pool.implies(same, val_eq);
            self.constraints.push(implied);
        }
        self.init_reads
            .entry(key)
            .or_default()
            .push(InitRead { addr, value });
        value
    }

    /// Load one byte: resolve against this program's earlier stores in the
    /// table, falling back to initial memory.
    fn load_byte(&mut self, tag: usize, key: MemKey, addr: SymAddr, _pc: TermId) -> TermId {
        let mut value = self.init_read(key, addr);
        let entries = self.stores.entry((tag, key)).or_default().clone();
        for s in &entries {
            let same = self.addr_eq(s.addr, addr);
            if self.pool.as_const(same) == Some(0) {
                continue;
            }
            let cond = self.pool.and(same, s.pc);
            value = self.pool.ite(cond, s.value, value);
        }
        value
    }

    /// Record a one-byte store. `region` tells which flat output list (if
    /// any) also records the write: packet writes are part of the observable
    /// output of every program, stack writes only matter for window checks.
    fn store_byte(
        &mut self,
        tag: usize,
        key: MemKey,
        addr: SymAddr,
        value: TermId,
        pc: TermId,
        region: RegionTag,
    ) {
        let entry = StoreEntry { addr, value, pc };
        self.stores.entry((tag, key)).or_default().push(entry);
        match region {
            RegionTag::Packet => {
                self.packet_stores_flat.entry(tag).or_default().push(entry);
            }
            RegionTag::Stack => {
                self.stack_stores_flat.entry(tag).or_default().push(entry);
            }
            RegionTag::Context => {}
        }
    }

    /// Load `size` bytes little-endian, returning a 64-bit zero-extended term.
    fn load_value(
        &mut self,
        tag: usize,
        key: MemKey,
        base: SymAddr,
        size: MemSize,
        pc: TermId,
    ) -> TermId {
        let mut bytes = Vec::with_capacity(size.bytes());
        for i in 0..size.bytes() {
            let addr = self.offset_addr(base, i as i64);
            bytes.push(self.load_byte(tag, key, addr, pc));
        }
        self.combine_bytes(&bytes)
    }

    /// Store the low `size` bytes of `value` little-endian.
    #[allow(clippy::too_many_arguments)]
    fn store_value(
        &mut self,
        tag: usize,
        key: MemKey,
        base: SymAddr,
        size: MemSize,
        value: TermId,
        pc: TermId,
        region: RegionTag,
    ) {
        for i in 0..size.bytes() {
            let addr = self.offset_addr(base, i as i64);
            let byte = self.pool.extract(value, (i as u32) * 8 + 7, (i as u32) * 8);
            self.store_byte(tag, key, addr, byte, pc, region);
        }
    }

    fn offset_addr(&mut self, base: SymAddr, delta: i64) -> SymAddr {
        let d = self.pool.constant(delta as u64, 64);
        SymAddr {
            term: self.pool.add(base.term, d),
            concrete: base.concrete.map(|(r, o)| (r, o + delta)),
        }
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

    // ----- maps --------------------------------------------------------------

    fn init_map_present(&mut self, mkey: MapKey, map_id: u32, key: TermId) -> TermId {
        // Array-like maps: a key is present iff it is within range.
        if let Some(def) = self.map_defs.get(&map_id).copied() {
            if matches!(
                def.kind,
                MapKind::Array | MapKind::PerCpuArray | MapKind::DevMap
            ) {
                let idx = self.pool.extract(key, 31, 0);
                let max = self.pool.constant(def.max_entries as u64, 32);
                return self.pool.ult(idx, max);
            }
        }
        let entries = self.init_map_present.entry(mkey).or_default().clone();
        let present = self.fresh_var("init_map_present", 1);
        for e in &entries {
            if self.opts.map_concretization && e.map_id != map_id {
                continue;
            }
            let mut same = self.pool.eq(e.key, key);
            if !self.opts.map_concretization && e.map_id != map_id {
                same = self.pool.ff();
            }
            if self.pool.as_const(same) == Some(0) {
                continue;
            }
            let p_eq = self.pool.eq(e.present, present);
            let implied = self.pool.implies(same, p_eq);
            self.constraints.push(implied);
        }
        self.init_map_present
            .entry(mkey)
            .or_default()
            .push(MapInitPresent {
                map_id,
                key,
                present,
            });
        present
    }

    fn init_map_value(&mut self, mkey: MapKey, map_id: u32, key: TermId, offset: i64) -> TermId {
        let entries = self.init_map_values.entry(mkey).or_default().clone();
        for e in &entries {
            if e.map_id == map_id && e.key == key && e.offset == offset {
                return e.value;
            }
        }
        let value = self.fresh_var("init_map_val", 8);
        for e in &entries {
            if e.map_id != map_id || e.offset != offset {
                continue;
            }
            let same = self.pool.eq(e.key, key);
            if self.pool.as_const(same) == Some(0) {
                continue;
            }
            let v_eq = self.pool.eq(e.value, value);
            let implied = self.pool.implies(same, v_eq);
            self.constraints.push(implied);
        }
        self.init_map_values
            .entry(mkey)
            .or_default()
            .push(MapInitValue {
                map_id,
                key,
                offset,
                value,
            });
        value
    }

    /// Presence of `key` in `map_id` for program `tag` after the operations
    /// recorded so far (or the initial presence when none match).
    fn map_present(&mut self, tag: usize, map_id: u32, key: TermId) -> TermId {
        let mkey = self.map_key(map_id);
        let mut present = self.init_map_present(mkey, map_id, key);
        let ops = self.map_ops.entry((tag, mkey)).or_default().clone();
        for op in &ops {
            if op.map_id != map_id {
                continue;
            }
            let same = self.pool.eq(op.key, key);
            if self.pool.as_const(same) == Some(0) {
                continue;
            }
            let cond = self.pool.and(same, op.pc);
            let target = match op.kind {
                MapOpKind::Update => self.pool.tt(),
                MapOpKind::Delete => self.pool.ff(),
            };
            present = self.pool.ite(cond, target, present);
        }
        present
    }

    /// Load one byte of the value for `key` in `map_id`.
    fn map_load_byte(
        &mut self,
        tag: usize,
        map_id: u32,
        key: TermId,
        offset: i64,
        _pc: TermId,
    ) -> TermId {
        let mkey = self.map_key(map_id);
        let mut value = self.init_map_value(mkey, map_id, key, offset);
        let stores = self
            .map_value_stores
            .entry((tag, mkey))
            .or_default()
            .clone();
        for s in &stores {
            if s.map_id != map_id || s.offset != offset {
                continue;
            }
            let same = self.pool.eq(s.key, key);
            if self.pool.as_const(same) == Some(0) {
                continue;
            }
            let cond = self.pool.and(same, s.pc);
            value = self.pool.ite(cond, s.value, value);
        }
        value
    }

    fn map_store_byte(
        &mut self,
        tag: usize,
        map_id: u32,
        key: TermId,
        offset: i64,
        value: TermId,
        pc: TermId,
    ) {
        let mkey = self.map_key(map_id);
        let entry = MapValueStore {
            map_id,
            key,
            offset,
            value,
            pc,
        };
        self.map_value_stores
            .entry((tag, mkey))
            .or_default()
            .push(entry);
        self.map_stores_flat.entry(tag).or_default().push(entry);
    }

    fn record_map_op(&mut self, tag: usize, map_id: u32, key: TermId, pc: TermId, kind: MapOpKind) {
        let mkey = self.map_key(map_id);
        let op = MapOp {
            map_id,
            key,
            pc,
            kind,
        };
        self.map_ops.entry((tag, mkey)).or_default().push(op);
        self.map_ops_flat.entry(tag).or_default().push(op);
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

    /// Encode a complete program.
    pub fn encode_program(
        &mut self,
        prog: &Program,
        tag: usize,
    ) -> Result<ProgramEncoding, EncodeError> {
        for def in &prog.maps {
            self.map_defs.insert(def.id.0, *def);
        }
        let cfg = Cfg::build(&prog.insns).map_err(|e| EncodeError::Cfg(e.to_string()))?;
        let order = cfg.topo_order().ok_or(EncodeError::HasLoop)?;
        self.encode_cfg(&prog.insns, prog, &cfg, &order, tag, None)
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
        for (idx, insn) in insns.iter().enumerate() {
            self.step(&mut state, insn, idx, None, &mut ctx)?;
        }
        let zero = self.pool.constant(0, 64);
        Ok(ProgramEncoding {
            tag,
            ret: zero,
            end_regs: Some(state.regs),
            call_log: ctx.call_log,
            output_stores: self.collect_outputs(tag),
        })
    }

    fn encode_cfg(
        &mut self,
        insns: &[Insn],
        prog: &Program,
        cfg: &Cfg,
        order: &[usize],
        tag: usize,
        _window: Option<()>,
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
                    _ => self.step(&mut state, &insn, idx, Some(prog), &mut ctx)?,
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
            output_stores: self.collect_outputs(tag),
        })
    }

    fn collect_outputs(&self, tag: usize) -> Vec<OutputStore> {
        let mut out = Vec::new();
        for i in 0..self.packet_stores_flat.get(&tag).map_or(0, Vec::len) {
            out.push(OutputStore::Packet { addr_index: i });
        }
        for i in 0..self.map_stores_flat.get(&tag).map_or(0, Vec::len) {
            out.push(OutputStore::MapValue { store_index: i });
        }
        for i in 0..self.map_ops_flat.get(&tag).map_or(0, Vec::len) {
            out.push(OutputStore::MapPresence { op_index: i });
        }
        out
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

    /// Resolve the memory region of an address for a load/store whose base
    /// register has the given provenance.
    fn region_of(&self, prov: Prov, off: i16) -> Result<(RegionTag, Option<i64>), EncodeError> {
        match prov {
            Prov::Stack(o) => Ok((RegionTag::Stack, o.map(|x| x + off as i64))),
            Prov::Packet(o) => Ok((RegionTag::Packet, o.map(|x| x + off as i64))),
            // data_end-relative accesses keep a symbolic offset: their
            // concrete distance from `data` depends on the packet length.
            Prov::PacketEnd(_) => Ok((RegionTag::Packet, None)),
            Prov::Ctx(o) => Ok((RegionTag::Context, o.map(|x| x + off as i64))),
            Prov::MapValue { .. } => Err(EncodeError::Unsupported(
                "map value handled separately".into(),
            )),
            Prov::None | Prov::MapHandle(_) => Err(EncodeError::Unsupported(
                "memory access with unknown pointer provenance".into(),
            )),
        }
    }

    /// Execute one non-control-flow instruction symbolically.
    fn step(
        &mut self,
        state: &mut BlockState,
        insn: &Insn,
        _idx: usize,
        prog: Option<&Program>,
        ctx: &mut ProgCtx,
    ) -> Result<(), EncodeError> {
        let tag = ctx.tag;
        match *insn {
            Insn::Alu64 { op, dst, src } => {
                let d = state.regs[dst.index()];
                let s = self.operand(state, src);
                let result = self.alu64(op, d, s);
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
                let r32 = self.alu32(op, d32, s32);
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
                let value = self.encode_load(state, tag, base, off, size)?;
                // Track the packet data / data_end pointers coming out of the
                // context, as the interpreter and type analysis do.
                let new_prov = match state.prov[base.index()] {
                    Prov::Ctx(Some(c)) if size == MemSize::Dword => match c + off as i64 {
                        0 | 16 => Prov::Packet(Some(0)),
                        8 => Prov::PacketEnd(Some(0)),
                        _ => Prov::None,
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
                self.encode_store(state, tag, base, off, size, value)?;
            }
            Insn::StoreImm {
                size,
                base,
                off,
                imm,
            } => {
                let value = self.pool.constant(imm as i64 as u64, 64);
                self.encode_store(state, tag, base, off, size, value)?;
            }
            Insn::AtomicAdd {
                size,
                base,
                off,
                src,
            } => {
                let old = self.encode_load(state, tag, base, off, size)?;
                let addend = state.regs[src.index()];
                let new = if size == MemSize::Word {
                    let o32 = self.pool.extract(old, 31, 0);
                    let a32 = self.pool.extract(addend, 31, 0);
                    let s = self.pool.add(o32, a32);
                    self.pool.zero_extend(s, 64)
                } else {
                    self.pool.add(old, addend)
                };
                self.encode_store(state, tag, base, off, size, new)?;
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
                self.encode_call(state, helper, prog, ctx)?;
            }
            Insn::Nop | Insn::Ja { .. } | Insn::Jmp { .. } | Insn::Jmp32 { .. } | Insn::Exit => {}
        }
        Ok(())
    }

    fn encode_load(
        &mut self,
        state: &BlockState,
        tag: usize,
        base: Reg,
        off: i16,
        size: MemSize,
    ) -> Result<TermId, EncodeError> {
        let prov = state.prov[base.index()];
        if let Prov::MapValue {
            map_id,
            key,
            offset,
        } = prov
        {
            let start = offset.ok_or_else(|| {
                EncodeError::Unsupported("map value access at unknown offset".into())
            })? + off as i64;
            let mut bytes = Vec::with_capacity(size.bytes());
            for i in 0..size.bytes() {
                bytes.push(self.map_load_byte(tag, map_id, key, start + i as i64, state.pc));
            }
            return Ok(self.combine_bytes(&bytes));
        }
        let (region, conc) = self.region_of(prov, off)?;
        let key = self.mem_key(tag, region);
        let off_term = self.pool.constant(off as i64 as u64, 64);
        let term = self.pool.add(state.regs[base.index()], off_term);
        let base_addr = SymAddr {
            term,
            concrete: conc.map(|o| (region, o)),
        };
        Ok(self.load_value(tag, key, base_addr, size, state.pc))
    }

    fn encode_store(
        &mut self,
        state: &BlockState,
        tag: usize,
        base: Reg,
        off: i16,
        size: MemSize,
        value: TermId,
    ) -> Result<(), EncodeError> {
        let prov = state.prov[base.index()];
        if let Prov::MapValue {
            map_id,
            key,
            offset,
        } = prov
        {
            let start = offset.ok_or_else(|| {
                EncodeError::Unsupported("map value access at unknown offset".into())
            })? + off as i64;
            for i in 0..size.bytes() {
                let byte = self.pool.extract(value, (i as u32) * 8 + 7, (i as u32) * 8);
                self.map_store_byte(tag, map_id, key, start + i as i64, byte, state.pc);
            }
            return Ok(());
        }
        let (region, conc) = self.region_of(prov, off)?;
        let key = self.mem_key(tag, region);
        let off_term = self.pool.constant(off as i64 as u64, 64);
        let term = self.pool.add(state.regs[base.index()], off_term);
        let base_addr = SymAddr {
            term,
            concrete: conc.map(|o| (region, o)),
        };
        self.store_value(tag, key, base_addr, size, value, state.pc, region);
        Ok(())
    }

    fn encode_call(
        &mut self,
        state: &mut BlockState,
        helper: HelperId,
        prog: Option<&Program>,
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
                let def = prog
                    .and_then(|p| p.map(bpf_isa::MapId(map_id)).copied())
                    .or_else(|| self.map_defs.get(&map_id).copied())
                    .ok_or_else(|| EncodeError::Unsupported("undeclared map".into()))?;
                if def.key_size > 8 || def.value_size > 64 {
                    return Err(EncodeError::Unsupported("map key/value too large".into()));
                }
                let key = self.read_key(state, tag, Reg::R2, def.key_size as usize)?;
                match helper {
                    HelperId::MapLookup => {
                        let present = self.map_present(tag, map_id, key);
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
                        // Read the new value bytes through r3 and record them
                        // as map value stores.
                        let value_prov = state.prov[Reg::R3.index()];
                        for i in 0..def.value_size as usize {
                            let byte =
                                self.read_byte_through(state, tag, value_prov, Reg::R3, i as i64)?;
                            self.map_store_byte(tag, map_id, key, i as i64, byte, pc);
                        }
                        self.record_map_op(tag, map_id, key, pc, MapOpKind::Update);
                        state.prov[Reg::R0.index()] = Prov::None;
                        self.pool.constant(0, 64)
                    }
                    HelperId::MapDelete => {
                        let present = self.map_present(tag, map_id, key);
                        self.record_map_op(tag, map_id, key, pc, MapOpKind::Delete);
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

    /// Read a map key (≤ 8 bytes) through the pointer in `reg`.
    fn read_key(
        &mut self,
        state: &BlockState,
        tag: usize,
        reg: Reg,
        key_size: usize,
    ) -> Result<TermId, EncodeError> {
        let prov = state.prov[reg.index()];
        let mut bytes = Vec::with_capacity(key_size);
        for i in 0..key_size {
            bytes.push(self.read_byte_through(state, tag, prov, reg, i as i64)?);
        }
        Ok(self.combine_bytes(&bytes))
    }

    /// Read one byte at `[reg + delta]` given the register's provenance.
    fn read_byte_through(
        &mut self,
        state: &BlockState,
        tag: usize,
        prov: Prov,
        reg: Reg,
        delta: i64,
    ) -> Result<TermId, EncodeError> {
        if let Prov::MapValue {
            map_id,
            key,
            offset,
        } = prov
        {
            let start = offset.ok_or_else(|| {
                EncodeError::Unsupported("map value access at unknown offset".into())
            })?;
            return Ok(self.map_load_byte(tag, map_id, key, start + delta, state.pc));
        }
        let (region, conc) = self.region_of(prov, 0)?;
        let key = self.mem_key(tag, region);
        let d = self.pool.constant(delta as u64, 64);
        let term = self.pool.add(state.regs[reg.index()], d);
        let addr = SymAddr {
            term,
            concrete: conc.map(|o| (region, o + delta)),
        };
        Ok(self.load_byte(tag, key, addr, state.pc))
    }

    fn alu64(&mut self, op: AluOp, d: TermId, s: TermId) -> TermId {
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

    fn alu32(&mut self, op: AluOp, d: TermId, s: TermId) -> TermId {
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
    /// encoded programs differ (return value, final packet bytes touched by
    /// either program, final map values and presence for keys touched by
    /// either program).
    pub fn output_difference(&mut self, a: &ProgramEncoding, b: &ProgramEncoding) -> TermId {
        let mut disjuncts = vec![self.pool.ne(a.ret, b.ret)];

        // Packet bytes.
        let mut packet_addrs: Vec<SymAddr> = Vec::new();
        for &t in &[a.tag, b.tag] {
            for s in self.packet_stores_flat.get(&t).cloned().unwrap_or_default() {
                packet_addrs.push(s.addr);
            }
        }
        for addr in packet_addrs {
            let fa = self.final_packet_byte(a.tag, addr);
            let fb = self.final_packet_byte(b.tag, addr);
            disjuncts.push(self.pool.ne(fa, fb));
        }

        // Map values.
        let mut map_slots: Vec<(u32, TermId, i64)> = Vec::new();
        for &t in &[a.tag, b.tag] {
            for s in self.map_stores_flat.get(&t).cloned().unwrap_or_default() {
                if !map_slots
                    .iter()
                    .any(|(m, k, o)| *m == s.map_id && *k == s.key && *o == s.offset)
                {
                    map_slots.push((s.map_id, s.key, s.offset));
                }
            }
        }
        for (map_id, key, offset) in map_slots {
            let tt = self.pool.tt();
            let fa = self.map_load_byte(a.tag, map_id, key, offset, tt);
            let fb = self.map_load_byte(b.tag, map_id, key, offset, tt);
            disjuncts.push(self.pool.ne(fa, fb));
        }

        // Map presence.
        let mut keys: Vec<(u32, TermId)> = Vec::new();
        for &t in &[a.tag, b.tag] {
            for op in self.map_ops_flat.get(&t).cloned().unwrap_or_default() {
                if !keys.iter().any(|(m, k)| *m == op.map_id && *k == op.key) {
                    keys.push((op.map_id, op.key));
                }
            }
        }
        for (map_id, key) in keys {
            let pa = self.map_present(a.tag, map_id, key);
            let pb = self.map_present(b.tag, map_id, key);
            disjuncts.push(self.pool.ne(pa, pb));
        }

        // End-of-window register comparison.
        if let (Some(ra), Some(rb)) = (a.end_regs, b.end_regs) {
            for i in 0..NUM_REGS {
                disjuncts.push(self.pool.ne(ra[i], rb[i]));
            }
        }

        self.pool.or_many(&disjuncts)
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
        // Packet / map effects are always compared.
        let mem = {
            let mut stripped_a = a.clone();
            let mut stripped_b = b.clone();
            stripped_a.end_regs = None;
            stripped_b.end_regs = None;
            let ra = self.pool.constant(0, 64);
            stripped_a.ret = ra;
            stripped_b.ret = ra;
            self.output_difference(&stripped_a, &stripped_b)
        };
        disjuncts.push(mem);

        // Stack bytes written by either window and still live afterwards.
        let stack_key = if self.opts.memory_type_concretization {
            MemKey::Stack
        } else {
            MemKey::Unified
        };
        let mut stack_addrs: Vec<SymAddr> = Vec::new();
        for &t in &[a.tag, b.tag] {
            for s in self.stack_stores_flat.get(&t).cloned().unwrap_or_default() {
                let relevant = match s.addr.concrete {
                    Some((RegionTag::Stack, off)) => live_stack_out.contains(&(off as i16)),
                    // Unknown offset: compare conservatively.
                    _ => true,
                };
                if relevant {
                    stack_addrs.push(s.addr);
                }
            }
        }
        for addr in stack_addrs {
            let tt = self.pool.tt();
            let fa = self.load_byte(a.tag, stack_key, addr, tt);
            let fb = self.load_byte(b.tag, stack_key, addr, tt);
            disjuncts.push(self.pool.ne(fa, fb));
        }

        self.pool.or_many(&disjuncts)
    }

    fn final_packet_byte(&mut self, tag: usize, addr: SymAddr) -> TermId {
        let key = if self.opts.memory_type_concretization {
            MemKey::Packet
        } else {
            MemKey::Unified
        };
        let tt = self.pool.tt();
        self.load_byte(tag, key, addr, tt)
    }

    /// Names and terms of the shared input variables (used by counterexample
    /// extraction).
    pub fn input_summary(&self) -> Vec<(&'static str, TermId)> {
        vec![
            ("in_pkt_len", self.packet_len),
            ("in_time_ns", self.time_ns),
            ("in_cpu_id", self.cpu_id),
            ("in_pid_tgid", self.pid_tgid),
        ]
    }

    /// The packet initial bytes observed during encoding: (address term,
    /// concrete offset if known, value term). Used by counterexample
    /// extraction to reconstruct a concrete packet.
    pub fn packet_init_reads(&self) -> Vec<(TermId, Option<i64>, TermId)> {
        let mut out = Vec::new();
        for (key, reads) in &self.init_reads {
            let is_packet_table = matches!(key, MemKey::Packet | MemKey::Unified);
            if !is_packet_table {
                continue;
            }
            for r in reads {
                match r.addr.concrete {
                    Some((RegionTag::Packet, off)) => out.push((r.addr.term, Some(off), r.value)),
                    None => out.push((r.addr.term, None, r.value)),
                    _ => {}
                }
            }
        }
        out
    }

    /// The initial map state observed during encoding: (map id, key term,
    /// offset, value term) plus presence bits (map id, key term, presence
    /// term). Used by counterexample extraction.
    pub fn map_init_reads(&self) -> (Vec<MapValueRead>, Vec<MapPresenceRead>) {
        let mut values = Vec::new();
        for reads in self.init_map_values.values() {
            for r in reads {
                values.push((r.map_id, r.key, r.offset, r.value));
            }
        }
        let mut present = Vec::new();
        for reads in self.init_map_present.values() {
            for r in reads {
                present.push((r.map_id, r.key, r.present));
            }
        }
        (values, present)
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
