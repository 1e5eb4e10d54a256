//! The BPF map store: runtime state of every map a program declares.
//!
//! Maps are key/value stores owned by the kernel. Lookups return *pointers*
//! into value memory; this module hands out stable cell addresses in the
//! [`crate::layout::MAP_VALUE_BASE`] region so that programs can read and
//! write values through those pointers (including with atomic adds), exactly
//! as real BPF programs do.

use crate::input::{MapContents, MapDump};
use crate::layout::{MAP_VALUE_BASE, MAP_VALUE_STRIDE};
use bpf_isa::{MapDef, MapId, MapKind};
use std::collections::BTreeMap;

/// Whether a map kind pre-creates every entry, keyed by its `u32` index.
fn is_array(kind: MapKind) -> bool {
    matches!(
        kind,
        MapKind::Array | MapKind::PerCpuArray | MapKind::DevMap
    )
}

/// Runtime state of a single map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MapInstance {
    /// Static definition (sizes, kind); fixes the layout of `cells`.
    def: MapDef,
    /// Value cells back to back, `value_size` bytes each: cell `i` occupies
    /// `cells[i * value_size..(i + 1) * value_size]`. Cells are append-only;
    /// a deleted hash entry's cell is never reused.
    cells: Vec<u8>,
    /// Number of cells (kept explicitly so zero-sized values still count).
    len: usize,
    /// Hash-like maps: key → cell index. Empty for array-like maps, whose
    /// key `i` is cell `i`.
    entries: BTreeMap<Vec<u8>, usize>,
}

impl MapInstance {
    fn new(def: MapDef) -> MapInstance {
        // Array-like maps have all entries pre-existing and zeroed.
        let len = if is_array(def.kind) {
            def.max_entries as usize
        } else {
            0
        };
        MapInstance {
            def,
            cells: vec![0u8; len * def.value_size as usize],
            len,
            entries: BTreeMap::new(),
        }
    }

    fn is_array(&self) -> bool {
        is_array(self.def.kind)
    }

    /// The cell an array-like map's key names: keys are 4-byte
    /// little-endian indices below `max_entries`; anything else misses.
    fn array_index(&self, key: &[u8]) -> Option<usize> {
        let idx = u32::from_le_bytes(key.try_into().ok()?);
        (idx < self.def.max_entries).then_some(idx as usize)
    }

    /// Cell index for a key, if present.
    pub fn lookup(&self, key: &[u8]) -> Option<usize> {
        if self.is_array() {
            self.array_index(key)
        } else {
            self.entries.get(key).copied()
        }
    }

    /// Insert or overwrite the value for a key, returning the cell index.
    /// Fails (returns `None`) when the map is full, the key or value has the
    /// wrong size, or an array index is out of range.
    pub fn update(&mut self, key: &[u8], value: &[u8]) -> Option<usize> {
        if key.len() != self.def.key_size as usize || value.len() != self.def.value_size as usize {
            return None;
        }
        if let Some(cell) = self.lookup(key) {
            self.cell_mut(cell)?.copy_from_slice(value);
            return Some(cell);
        }
        if self.is_array() || self.entries.len() >= self.def.max_entries as usize {
            return None;
        }
        let cell = self.len;
        self.cells.extend_from_slice(value);
        self.len += 1;
        self.entries.insert(key.to_vec(), cell);
        Some(cell)
    }

    /// Delete a key. Returns `true` if it existed. Array entries cannot be
    /// deleted (mirrors kernel behaviour: `-EINVAL`).
    pub fn delete(&mut self, key: &[u8]) -> bool {
        !self.is_array() && self.entries.remove(key).is_some()
    }

    /// Read access to a value cell.
    pub fn cell(&self, idx: usize) -> Option<&[u8]> {
        let size = self.def.value_size as usize;
        (idx < self.len).then(|| &self.cells[idx * size..(idx + 1) * size])
    }

    /// Write access to a value cell. The slice has exactly `value_size`
    /// bytes, so callers cannot grow or shrink a cell.
    pub fn cell_mut(&mut self, idx: usize) -> Option<&mut [u8]> {
        let size = self.def.value_size as usize;
        (idx < self.len).then(|| &mut self.cells[idx * size..(idx + 1) * size])
    }

    /// This map's final contents: an array's cells in index order, or a hash
    /// map's live entries in key order.
    fn dump(&self) -> MapDump {
        let mut dump = MapDump {
            id: self.def.id.0,
            array: self.is_array(),
            key_size: self.def.key_size as usize,
            value_size: self.def.value_size as usize,
            len: self.len,
            keys: Vec::new(),
            values: Vec::new(),
        };
        if self.is_array() {
            dump.values = self.cells.clone();
        } else {
            dump.len = self.entries.len();
            dump.keys.reserve_exact(dump.len * dump.key_size);
            dump.values.reserve_exact(dump.len * dump.value_size);
            for (key, &cell) in &self.entries {
                dump.keys.extend_from_slice(key);
                dump.values
                    .extend_from_slice(self.cell(cell).expect("live cells exist"));
            }
        }
        dump
    }
}

/// The set of maps available to one program execution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MapStore {
    /// One instance per declared map, sorted by id. A map's position in this
    /// list fixes its slice of the map-value address region.
    maps: Vec<MapInstance>,
}

impl MapStore {
    /// Create the store from a program's map definitions. A repeated id
    /// keeps the last definition.
    pub fn from_defs(defs: &[MapDef]) -> MapStore {
        let mut maps: Vec<MapInstance> = Vec::with_capacity(defs.len());
        for def in defs {
            match maps.binary_search_by_key(&def.id, |m| m.def.id) {
                Ok(at) => maps[at] = MapInstance::new(*def),
                Err(at) => maps.insert(at, MapInstance::new(*def)),
            }
        }
        MapStore { maps }
    }

    /// Access a map by id.
    pub fn get(&self, id: MapId) -> Option<&MapInstance> {
        self.maps.iter().find(|m| m.def.id == id)
    }

    /// Mutable access to a map by id.
    pub fn get_mut(&mut self, id: MapId) -> Option<&mut MapInstance> {
        self.maps.iter_mut().find(|m| m.def.id == id)
    }

    /// The virtual address of a value cell (map-value region).
    pub fn cell_addr(&self, id: MapId, cell: usize) -> u64 {
        let map_index = self.maps.iter().position(|m| m.def.id == id).unwrap_or(0) as u64;
        MAP_VALUE_BASE + map_index * MAP_VALUE_STRIDE + cell as u64 * 256
    }

    /// Inverse of [`MapStore::cell_addr`]: which map/cell/offset an address
    /// in the map-value region refers to, if the cell exists.
    ///
    /// Each cell owns a 256-byte stride of address space. An address inside
    /// the stride but at or past `value_size` still resolves to its cell;
    /// callers bounds-check `offset + len` against the value and treat such
    /// accesses as out of bounds.
    pub fn resolve_addr(&self, addr: u64) -> Option<(MapId, usize, usize)> {
        if addr < MAP_VALUE_BASE {
            return None;
        }
        let rel = addr - MAP_VALUE_BASE;
        let map_index = (rel / MAP_VALUE_STRIDE) as usize;
        let within = rel % MAP_VALUE_STRIDE;
        let cell = (within / 256) as usize;
        let offset = (within % 256) as usize;
        let inst = self.maps.get(map_index)?;
        inst.cell(cell)?;
        Some((inst.def.id, cell, offset))
    }

    /// Contents of every map, used to compare the final states of two
    /// program executions.
    pub fn contents(&self) -> MapContents {
        MapContents::new(self.maps.iter().map(MapInstance::dump).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn defs() -> Vec<MapDef> {
        vec![MapDef::array(0, 8, 4), MapDef::hash(1, 4, 8, 8)]
    }

    #[test]
    fn array_entries_preexist_and_are_zero() {
        let store = MapStore::from_defs(&defs());
        let arr = store.get(MapId(0)).unwrap();
        for idx in 0u32..4 {
            let cell = arr.lookup(&idx.to_le_bytes()).expect("entry exists");
            assert_eq!(arr.cell(cell).unwrap(), &[0u8; 8]);
        }
        assert!(arr.lookup(&4u32.to_le_bytes()).is_none());
    }

    #[test]
    fn hash_update_lookup_delete() {
        let mut store = MapStore::from_defs(&defs());
        let h = store.get_mut(MapId(1)).unwrap();
        let key = 7u32.to_le_bytes();
        assert!(h.lookup(&key).is_none());
        let cell = h.update(&key, &42u64.to_le_bytes()).unwrap();
        assert_eq!(h.cell(cell).unwrap(), &42u64.to_le_bytes());
        assert!(h.delete(&key));
        assert!(h.lookup(&key).is_none());
        assert!(!h.delete(&key));
    }

    #[test]
    fn array_delete_refused() {
        let mut store = MapStore::from_defs(&defs());
        let arr = store.get_mut(MapId(0)).unwrap();
        assert!(!arr.delete(&0u32.to_le_bytes()));
    }

    #[test]
    fn update_rejects_bad_sizes_and_full_maps() {
        let mut store = MapStore::from_defs(&[MapDef::hash(0, 4, 4, 1)]);
        let h = store.get_mut(MapId(0)).unwrap();
        assert!(h.update(&[1, 2, 3], &[0; 4]).is_none()); // short key
        assert!(h.update(&[1, 2, 3, 4], &[0; 3]).is_none()); // short value
        assert!(h.update(&[1, 2, 3, 4], &[0; 4]).is_some());
        assert!(h.update(&[5, 6, 7, 8], &[0; 4]).is_none()); // full
        assert!(h.update(&[1, 2, 3, 4], &[9; 4]).is_some()); // overwrite ok
    }

    #[test]
    fn deleted_hash_cells_are_never_reused() {
        let mut store = MapStore::from_defs(&defs());
        let h = store.get_mut(MapId(1)).unwrap();
        let [a, b, c] = [1u32, 2, 3].map(u32::to_le_bytes);
        assert_eq!(h.update(&a, &[1; 8]), Some(0));
        assert_eq!(h.update(&b, &[2; 8]), Some(1));
        assert!(h.delete(&a));
        assert_eq!(h.update(&c, &[3; 8]), Some(2));
        assert_eq!(h.lookup(&c), Some(2));
        // The deleted cell keeps its slot and its last value.
        assert_eq!(h.cell(0), Some(&[1u8; 8][..]));
        assert_eq!(
            store.cell_addr(MapId(1), 2),
            MAP_VALUE_BASE + MAP_VALUE_STRIDE + 2 * 256
        );
        assert_eq!(
            store.resolve_addr(MAP_VALUE_BASE + MAP_VALUE_STRIDE + 2 * 256),
            Some((MapId(1), 2, 0))
        );
        assert!(store
            .resolve_addr(MAP_VALUE_BASE + MAP_VALUE_STRIDE + 3 * 256)
            .is_none());
    }

    #[test]
    fn zero_sized_values_still_count_cells() {
        let mut store = MapStore::from_defs(&[MapDef::hash(0, 4, 0, 4)]);
        let h = store.get_mut(MapId(0)).unwrap();
        assert_eq!(h.update(&[1, 0, 0, 0], &[]), Some(0));
        assert_eq!(h.update(&[2, 0, 0, 0], &[]), Some(1));
        assert_eq!(h.cell(1), Some(&[][..]));
        assert!(h.cell(2).is_none());
        assert_eq!(store.contents().to_map_state().len(), 2);
    }

    #[test]
    fn array_keys_must_be_in_range_indices() {
        let mut store = MapStore::from_defs(&defs());
        let arr = store.get_mut(MapId(0)).unwrap();
        for bad in [&[0u8, 0, 0][..], &[0, 0, 0, 0, 0], &4u32.to_le_bytes()] {
            assert!(arr.lookup(bad).is_none(), "{bad:?}");
            assert!(arr.update(bad, &[0; 8]).is_none(), "{bad:?}");
        }
        assert_eq!(arr.lookup(&3u32.to_le_bytes()), Some(3));
        assert_eq!(arr.update(&3u32.to_le_bytes(), &[5; 8]), Some(3));
        // An array declared with non-4-byte keys never hits.
        let mut odd = MapStore::from_defs(&[MapDef {
            key_size: 8,
            ..MapDef::array(0, 8, 4)
        }]);
        let arr = odd.get_mut(MapId(0)).unwrap();
        assert!(arr.lookup(&0u64.to_le_bytes()).is_none());
        assert!(arr.update(&0u64.to_le_bytes(), &[0; 8]).is_none());
        assert!(arr.update(&0u32.to_le_bytes(), &[0; 8]).is_none());
        // Keys shorter than an index never hit either.
        let mut short = MapStore::from_defs(&[MapDef {
            key_size: 2,
            ..MapDef::array(0, 8, 4)
        }]);
        let arr = short.get_mut(MapId(0)).unwrap();
        assert!(arr.update(&[0, 0], &[0; 8]).is_none());
    }

    #[test]
    fn cell_addresses_resolve_back() {
        let mut store = MapStore::from_defs(&defs());
        let cell = store
            .get_mut(MapId(1))
            .unwrap()
            .update(&9u32.to_le_bytes(), &[7u8; 8])
            .unwrap();
        let addr = store.cell_addr(MapId(1), cell);
        let (id, c, off) = store.resolve_addr(addr + 3).unwrap();
        assert_eq!((id, c, off), (MapId(1), cell, 3));
        assert!(store.resolve_addr(0x10).is_none());
    }

    #[test]
    fn contents_contain_all_entries() {
        let mut store = MapStore::from_defs(&defs());
        store
            .get_mut(MapId(1))
            .unwrap()
            .update(&3u32.to_le_bytes(), &[1u8; 8]);
        let snap = store.contents().to_map_state();
        assert_eq!(snap.len(), 4 + 1);
        assert_eq!(snap[&(1, 3u32.to_le_bytes().to_vec())], vec![1u8; 8]);
    }
}
