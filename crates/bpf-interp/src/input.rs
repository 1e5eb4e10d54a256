//! Program inputs, outputs, and random test-case generation.

use bpf_isa::{MapKind, Program};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Map contents keyed by `(map id, key bytes)`: the initial contents of maps
/// in a [`ProgramInput`], and the keyed view of a [`ProgramOutput`]'s final
/// [`MapContents`] (see [`MapContents::to_map_state`]).
pub type MapState = BTreeMap<(u32, Vec<u8>), Vec<u8>>;

/// One complete input to a BPF program execution: everything that can
/// influence its behaviour.
///
/// The `Ord` impl (lexicographic over the fields, in declaration order) has
/// no semantic meaning; it exists so pools of inputs — e.g. the counterexample
/// exchange in K2's search engine — can be merged in a deterministic,
/// schedule-independent order.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct ProgramInput {
    /// Packet payload (starts at the `data` pointer; headroom is added by the
    /// machine).
    pub packet: Vec<u8>,
    /// Context input words, placed where the program type's context layout
    /// (`ProgramType::ctx_layout`) puts them.
    pub ctx_words: Vec<u64>,
    /// Initial contents of the program's maps.
    pub maps: MapState,
    /// Value returned by `bpf_ktime_get_ns`.
    pub time_ns: u64,
    /// Seed of the `bpf_get_prandom_u32` stream.
    pub random_seed: u64,
    /// Value returned by `bpf_get_smp_processor_id`.
    pub cpu_id: u32,
    /// Value returned by `bpf_get_current_pid_tgid`.
    pub pid_tgid: u64,
}

impl Default for ProgramInput {
    fn default() -> Self {
        ProgramInput {
            packet: vec![0; 64],
            ctx_words: vec![0; 8],
            maps: MapState::new(),
            time_ns: 1_000_000,
            random_seed: 0x9e37_79b9_7f4a_7c15,
            cpu_id: 0,
            pid_tgid: 0x0000_0042_0000_0042,
        }
    }
}

impl ProgramInput {
    /// An input with the given packet payload and defaults elsewhere.
    pub fn with_packet(packet: Vec<u8>) -> ProgramInput {
        ProgramInput {
            packet,
            ..Default::default()
        }
    }
}

/// The observable result of a program execution: the exit code plus the final
/// packet and map contents (the paper's notion of program output for
/// equivalence purposes, fixed per attach hook).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramOutput {
    /// Value of `r0` at `exit`.
    pub ret: u64,
    /// Final packet payload (after any rewrites / headroom adjustment).
    pub packet: Vec<u8>,
    /// Final map contents.
    pub maps: MapContents,
}

impl ProgramOutput {
    /// Number of differing bits between two outputs (the paper's
    /// `diff_pop` semantic distance), summed over the return value, packet
    /// bytes and map values.
    pub fn diff_popcount(&self, other: &ProgramOutput) -> u64 {
        let mut diff = (self.ret ^ other.ret).count_ones() as u64;
        diff += byte_diff_popcount(&self.packet, &other.packet);
        diff += self.maps.diff(&other.maps, byte_diff_popcount);
        diff
    }

    /// Absolute numeric difference between outputs (the paper's `diff_abs`),
    /// using the return values and per-byte distances elsewhere.
    pub fn diff_abs(&self, other: &ProgramOutput) -> u64 {
        let mut diff = self.ret.abs_diff(other.ret);
        diff = diff.saturating_add(byte_diff_abs(&self.packet, &other.packet));
        diff = diff.saturating_add(self.maps.diff(&other.maps, byte_diff_abs));
        diff
    }
}

/// The final contents of a program's maps, as flat per-map buffers.
///
/// This is the map part of a [`ProgramOutput`]. It holds one dump per
/// declared map, sorted by map id:
///
/// * an array-like map (array, per-CPU array, devmap) dumps every cell in
///   index order, back to back;
/// * a hash-like map (hash, LPM trie) dumps its live entries sorted by key,
///   as one flat buffer of keys and one flat buffer of values.
///
/// Equality and the distances used by [`ProgramOutput::diff_popcount`] and
/// [`ProgramOutput::diff_abs`] are defined over the keyed view
/// [`MapContents::to_map_state`]. When both sides declare the same maps —
/// always the case when a candidate is compared with its source program —
/// they are computed straight from the buffers: arrays cell by cell, hash
/// maps by a merge over the sorted keys.
#[derive(Debug, Clone, Default)]
pub struct MapContents {
    maps: Vec<MapDump>,
}

/// One map's contents inside a [`MapContents`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct MapDump {
    /// Map id.
    pub(crate) id: u32,
    /// Whether this is an array-like map: entry `i` has key `i` (4 bytes,
    /// little-endian) and `keys` is empty.
    pub(crate) array: bool,
    /// Bytes per key in `keys`.
    pub(crate) key_size: usize,
    /// Bytes per value in `values`.
    pub(crate) value_size: usize,
    /// Number of entries.
    pub(crate) len: usize,
    /// Hash-like maps: the live keys in ascending order, back to back.
    pub(crate) keys: Vec<u8>,
    /// Every entry's value, in entry order, back to back.
    pub(crate) values: Vec<u8>,
}

impl MapDump {
    fn key(&self, i: usize) -> &[u8] {
        &self.keys[i * self.key_size..(i + 1) * self.key_size]
    }

    fn value(&self, i: usize) -> &[u8] {
        &self.values[i * self.value_size..(i + 1) * self.value_size]
    }

    /// Whether two dumps hold the same entry layout: the same map, with the
    /// same kind and sizes, and for arrays the same number of cells.
    fn same_shape(&self, other: &MapDump) -> bool {
        self.id == other.id
            && self.array == other.array
            && self.key_size == other.key_size
            && self.value_size == other.value_size
            && (!self.array || self.len == other.len)
    }

    /// `map_diff` restricted to this map, for a same-shaped `other`.
    fn diff(&self, other: &MapDump, f: fn(&[u8], &[u8]) -> u64) -> u64 {
        if self.array {
            // Same cell count and value size: the per-cell distances sum to
            // the distance between the buffers.
            return if self.values == other.values {
                0
            } else {
                f(&self.values, &other.values)
            };
        }
        let missing = 8 * self.value_size as u64;
        let (mut i, mut j, mut diff) = (0, 0, 0u64);
        while i < self.len && j < other.len {
            match self.key(i).cmp(other.key(j)) {
                std::cmp::Ordering::Less => {
                    diff += missing;
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    diff += missing;
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    diff += f(self.value(i), other.value(j));
                    i += 1;
                    j += 1;
                }
            }
        }
        diff + missing * ((self.len - i) + (other.len - j)) as u64
    }
}

impl MapContents {
    /// Wrap per-map dumps, which must be sorted by map id.
    pub(crate) fn new(maps: Vec<MapDump>) -> MapContents {
        MapContents { maps }
    }

    /// The contents keyed by `(map id, key bytes)`, the form a
    /// [`ProgramInput`] uses. Array entries are keyed by their 4-byte
    /// little-endian index.
    pub fn to_map_state(&self) -> MapState {
        let mut out = MapState::new();
        for map in &self.maps {
            for i in 0..map.len {
                let key = if map.array {
                    (i as u32).to_le_bytes().to_vec()
                } else {
                    map.key(i).to_vec()
                };
                out.insert((map.id, key), map.value(i).to_vec());
            }
        }
        out
    }

    fn same_shape(&self, other: &MapContents) -> bool {
        self.maps.len() == other.maps.len()
            && self
                .maps
                .iter()
                .zip(&other.maps)
                .all(|(a, b)| a.same_shape(b))
    }

    /// Sum of per-entry distances `f` over entries present on both sides,
    /// plus 8 per value byte of every entry present on one side only.
    fn diff(&self, other: &MapContents, f: fn(&[u8], &[u8]) -> u64) -> u64 {
        if !self.same_shape(other) {
            return map_diff(&self.to_map_state(), &other.to_map_state(), f);
        }
        self.maps
            .iter()
            .zip(&other.maps)
            .map(|(a, b)| a.diff(b, f))
            .sum()
    }
}

impl PartialEq for MapContents {
    fn eq(&self, other: &MapContents) -> bool {
        if self.same_shape(other) {
            self.maps == other.maps
        } else {
            self.to_map_state() == other.to_map_state()
        }
    }
}

impl Eq for MapContents {}

fn byte_diff_popcount(a: &[u8], b: &[u8]) -> u64 {
    let common = a.len().min(b.len());
    let mut diff: u64 = a[..common]
        .iter()
        .zip(&b[..common])
        .map(|(x, y)| (x ^ y).count_ones() as u64)
        .sum();
    diff += 8 * (a.len().abs_diff(b.len())) as u64;
    diff
}

fn byte_diff_abs(a: &[u8], b: &[u8]) -> u64 {
    let common = a.len().min(b.len());
    let mut diff: u64 = a[..common]
        .iter()
        .zip(&b[..common])
        .map(|(x, y)| x.abs_diff(*y) as u64)
        .sum();
    diff += 255 * (a.len().abs_diff(b.len())) as u64;
    diff
}

fn map_diff(a: &MapState, b: &MapState, f: fn(&[u8], &[u8]) -> u64) -> u64 {
    let mut diff = 0u64;
    for (k, va) in a {
        match b.get(k) {
            Some(vb) => diff += f(va, vb),
            None => diff += 8 * va.len() as u64,
        }
    }
    for (k, vb) in b {
        if !a.contains_key(k) {
            diff += 8 * vb.len() as u64;
        }
    }
    diff
}

/// Deterministic random test-case generator.
///
/// Given a program (for its map definitions), the generator produces inputs
/// with random packets, contexts and map contents. A fixed seed makes
/// generated suites reproducible, which matters because K2 caches equivalence
/// outcomes keyed by behaviour on these tests.
#[derive(Debug, Clone)]
pub struct InputGenerator {
    rng: StdRng,
    /// Length of generated packet payloads in bytes.
    pub packet_len: usize,
    /// How many entries to pre-populate in each non-array map.
    pub map_prefill: usize,
}

impl InputGenerator {
    /// Create a generator with the given seed.
    pub fn new(seed: u64) -> InputGenerator {
        InputGenerator {
            rng: StdRng::seed_from_u64(seed),
            packet_len: 64,
            map_prefill: 4,
        }
    }

    /// Generate one random input suitable for `prog`.
    pub fn generate(&mut self, prog: &Program) -> ProgramInput {
        let mut packet = vec![0u8; self.packet_len];
        self.rng.fill(&mut packet[..]);
        // Make the start of the packet look vaguely like Ethernet/IPv4 so
        // header-parsing benchmarks exercise both their match and fall-through
        // paths: half the time force the EtherType to IPv4.
        if packet.len() >= 14 && self.rng.gen_bool(0.5) {
            packet[12] = 0x08;
            packet[13] = 0x00;
            if packet.len() >= 34 {
                packet[14] = 0x45; // version/IHL
            }
        }
        let ctx_words = (0..8).map(|_| self.rng.gen::<u64>()).collect();
        let mut maps = MapState::new();
        for def in &prog.maps {
            match def.kind {
                MapKind::Array | MapKind::PerCpuArray | MapKind::DevMap => {
                    // Arrays always have all keys; randomize a few values.
                    for idx in 0..def.max_entries.min(self.map_prefill as u32) {
                        let mut val = vec![0u8; def.value_size as usize];
                        self.rng.fill(&mut val[..]);
                        maps.insert((def.id.0, idx.to_le_bytes().to_vec()), val);
                    }
                }
                MapKind::Hash | MapKind::LpmTrie => {
                    for _ in 0..self.map_prefill {
                        let mut key = vec![0u8; def.key_size as usize];
                        let mut val = vec![0u8; def.value_size as usize];
                        self.rng.fill(&mut key[..]);
                        self.rng.fill(&mut val[..]);
                        // Bias some keys to small values so programs that
                        // look up packet-derived keys sometimes hit.
                        if self.rng.gen_bool(0.5) {
                            for b in key.iter_mut().skip(1) {
                                *b = 0;
                            }
                        }
                        maps.insert((def.id.0, key), val);
                    }
                }
            }
        }
        ProgramInput {
            packet,
            ctx_words,
            maps,
            time_ns: self.rng.gen_range(1_000_000..1_000_000_000),
            random_seed: self.rng.gen(),
            cpu_id: self.rng.gen_range(0..16),
            pid_tgid: self.rng.gen(),
        }
    }

    /// Generate a suite of `n` inputs.
    pub fn generate_suite(&mut self, prog: &Program, n: usize) -> Vec<ProgramInput> {
        (0..n).map(|_| self.generate(prog)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maps::MapStore;
    use bpf_isa::{Insn, MapDef, MapId, ProgramType, Reg};
    use proptest::prelude::*;

    fn prog() -> Program {
        Program::with_maps(
            ProgramType::Xdp,
            vec![Insn::mov64_imm(Reg::R0, 0), Insn::Exit],
            vec![MapDef::array(0, 8, 4), MapDef::hash(1, 4, 8, 16)],
        )
    }

    #[test]
    fn generator_is_deterministic() {
        let p = prog();
        let a = InputGenerator::new(7).generate_suite(&p, 5);
        let b = InputGenerator::new(7).generate_suite(&p, 5);
        assert_eq!(a, b);
        let c = InputGenerator::new(8).generate_suite(&p, 5);
        assert_ne!(a, c);
    }

    #[test]
    fn generator_populates_maps() {
        let p = prog();
        let input = InputGenerator::new(1).generate(&p);
        assert!(input.maps.keys().any(|(id, _)| *id == 0));
        assert!(input.maps.keys().any(|(id, _)| *id == 1));
        assert_eq!(input.packet.len(), 64);
    }

    #[test]
    fn popcount_diff_zero_iff_equal() {
        let out = ProgramOutput {
            ret: 3,
            packet: vec![1, 2, 3],
            maps: MapContents::default(),
        };
        assert_eq!(out.diff_popcount(&out), 0);
        assert_eq!(out.diff_abs(&out), 0);
        let mut other = out.clone();
        other.ret = 2;
        assert_eq!(out.diff_popcount(&other), 1); // 3 ^ 2 == 1
        assert_eq!(out.diff_abs(&other), 1);
    }

    #[test]
    fn diff_counts_packet_and_maps() {
        let a = ProgramOutput {
            ret: 0,
            packet: vec![0xff, 0x00],
            maps: MapContents::default(),
        };
        let mut bmaps = MapStore::from_defs(&[MapDef::array(0, 1, 1)]);
        bmaps
            .get_mut(MapId(0))
            .unwrap()
            .update(&0u32.to_le_bytes(), &[0xff]);
        let b = ProgramOutput {
            ret: 0,
            packet: vec![0x0f, 0x00],
            maps: bmaps.contents(),
        };
        assert_eq!(a.diff_popcount(&b), 4 + 8);
        let c = ProgramOutput {
            ret: 0,
            packet: vec![0xff],
            maps: MapContents::default(),
        };
        assert_eq!(a.diff_popcount(&c), 8); // missing byte
    }

    /// Map layouts for the equivalence property below. Index 0 and 1 have the
    /// same shape; every other entry differs from index 0 in one way.
    fn layouts() -> Vec<Vec<MapDef>> {
        let base = vec![MapDef::array(0, 4, 6), MapDef::hash(1, 4, 8, 4)];
        vec![
            base.clone(),
            base,
            vec![MapDef::array(0, 4, 3), MapDef::hash(1, 4, 8, 4)],
            vec![MapDef::array(0, 2, 6), MapDef::hash(1, 4, 8, 4)],
            vec![MapDef::hash(0, 4, 4, 6), MapDef::hash(1, 4, 8, 4)],
            vec![MapDef::array(0, 4, 6), MapDef::hash(2, 4, 8, 4)],
            vec![MapDef::array(0, 4, 6), MapDef::hash(1, 4, 0, 4)],
            vec![MapDef::array(0, 4, 6)],
            vec![],
        ]
    }

    /// Final contents after applying `ops` (delete when `op % 4 == 0`,
    /// update otherwise) to fresh maps. Keys come from a six-key space so
    /// both sides of a pair overlap.
    fn contents_after(defs: &[MapDef], ops: &[(u8, u8, u8, u8)]) -> MapContents {
        let mut store = MapStore::from_defs(defs);
        for &(op, which, key, seed) in ops {
            let Some(def) = defs.get(which as usize % defs.len().max(1)) else {
                break;
            };
            let inst = store.get_mut(def.id).unwrap();
            let mut k = vec![0u8; def.key_size as usize];
            if let Some(first) = k.first_mut() {
                *first = key % 6;
            }
            let v: Vec<u8> = (0..def.value_size as u8)
                .map(|i| seed.wrapping_mul(i + 1))
                .collect();
            if op % 4 == 0 {
                inst.delete(&k);
            } else {
                inst.update(&k, &v);
            }
        }
        store.contents()
    }

    fn arb_ops() -> impl Strategy<Value = Vec<(u8, u8, u8, u8)>> {
        prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()), 0..24)
    }

    proptest! {
        #[test]
        fn map_contents_match_keyed_semantics(
            same in any::<bool>(),
            other in 1usize..9,
            ops_a in arb_ops(),
            ops_b in arb_ops(),
        ) {
            let layouts = layouts();
            let b_layout = if same { 1 } else { other };
            let a = contents_after(&layouts[0], &ops_a);
            let b = contents_after(&layouts[b_layout], &ops_b);
            prop_assert_eq!(a.same_shape(&b), b_layout == 1);
            let (sa, sb) = (a.to_map_state(), b.to_map_state());
            let output = |maps: MapContents| ProgramOutput {
                ret: 0,
                packet: Vec::new(),
                maps,
            };
            let (oa, ob) = (output(a), output(b));
            prop_assert_eq!(oa.diff_abs(&ob), map_diff(&sa, &sb, byte_diff_abs));
            prop_assert_eq!(oa.diff_popcount(&ob), map_diff(&sa, &sb, byte_diff_popcount));
            prop_assert_eq!(ob.diff_abs(&oa), map_diff(&sb, &sa, byte_diff_abs));
            prop_assert_eq!(oa == ob, sa == sb);
            prop_assert_eq!(oa.diff_abs(&oa.clone()), 0);
        }
    }
}
