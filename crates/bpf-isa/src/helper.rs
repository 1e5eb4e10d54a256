//! BPF helper functions callable from programs.
//!
//! Helper functions are implemented by the kernel (here, by `bpf-interp`) and
//! are how a BPF program performs stateful or privileged operations such as
//! map lookups. The K2 paper formalizes the map helpers precisely and models
//! a handful of other helpers (random numbers, timestamps, packet headroom
//! adjustment, processor id); the same set is implemented here.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a BPF helper function.
///
/// The numeric values match the Linux UAPI helper numbering so that wire
/// encodings of `call` instructions are kernel-compatible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum HelperId {
    /// `void *bpf_map_lookup_elem(map, key)` — returns a pointer to the value
    /// for `key`, or NULL (0) if the key is absent.
    MapLookup,
    /// `long bpf_map_update_elem(map, key, value, flags)` — inserts or
    /// overwrites the entry; returns 0 on success.
    MapUpdate,
    /// `long bpf_map_delete_elem(map, key)` — removes the entry; returns 0 if
    /// the key existed, negative error otherwise.
    MapDelete,
    /// `u64 bpf_ktime_get_ns(void)` — nanosecond timestamp.
    KtimeGetNs,
    /// `u32 bpf_get_prandom_u32(void)` — pseudo random number.
    GetPrandomU32,
    /// `u32 bpf_get_smp_processor_id(void)` — id of the executing CPU.
    GetSmpProcessorId,
    /// `long bpf_xdp_adjust_head(xdp_md, delta)` — grow/shrink packet headroom.
    XdpAdjustHead,
    /// `long bpf_redirect_map(map, key, flags)` — redirect the packet via a
    /// device/cpu map; returns `XDP_REDIRECT` on success.
    RedirectMap,
    /// `u64 bpf_get_current_pid_tgid(void)` — (tgid << 32) | pid of the task.
    GetCurrentPidTgid,
    /// `long bpf_perf_event_output(ctx, map, flags, data, size)` — emit a
    /// sample to a perf ring buffer. Modelled as a no-op returning 0.
    PerfEventOutput,
    /// `long bpf_csum_diff(from, from_size, to, to_size, seed)` — incremental
    /// internet checksum difference over two buffers.
    CsumDiff,
    /// A helper this model does not know about (kept for decode round-trips).
    Unknown(u32),
}

impl HelperId {
    /// Helpers that are fully modelled (interpreter + formalization).
    pub const MODELED: [HelperId; 11] = [
        HelperId::MapLookup,
        HelperId::MapUpdate,
        HelperId::MapDelete,
        HelperId::KtimeGetNs,
        HelperId::GetPrandomU32,
        HelperId::GetSmpProcessorId,
        HelperId::XdpAdjustHead,
        HelperId::RedirectMap,
        HelperId::GetCurrentPidTgid,
        HelperId::PerfEventOutput,
        HelperId::CsumDiff,
    ];

    /// Linux UAPI helper function number.
    pub fn number(self) -> u32 {
        match self {
            HelperId::MapLookup => 1,
            HelperId::MapUpdate => 2,
            HelperId::MapDelete => 3,
            HelperId::KtimeGetNs => 5,
            HelperId::GetPrandomU32 => 7,
            HelperId::GetSmpProcessorId => 8,
            HelperId::GetCurrentPidTgid => 14,
            HelperId::PerfEventOutput => 25,
            HelperId::CsumDiff => 28,
            HelperId::RedirectMap => 51,
            HelperId::XdpAdjustHead => 44,
            HelperId::Unknown(n) => n,
        }
    }

    /// Build a helper id from its UAPI number.
    pub fn from_number(n: u32) -> HelperId {
        match n {
            1 => HelperId::MapLookup,
            2 => HelperId::MapUpdate,
            3 => HelperId::MapDelete,
            5 => HelperId::KtimeGetNs,
            7 => HelperId::GetPrandomU32,
            8 => HelperId::GetSmpProcessorId,
            14 => HelperId::GetCurrentPidTgid,
            25 => HelperId::PerfEventOutput,
            28 => HelperId::CsumDiff,
            51 => HelperId::RedirectMap,
            44 => HelperId::XdpAdjustHead,
            other => HelperId::Unknown(other),
        }
    }

    /// Number of argument registers (`r1..`) the helper reads.
    pub fn num_args(self) -> usize {
        match self {
            HelperId::MapLookup | HelperId::MapDelete => 2,
            HelperId::MapUpdate => 4,
            HelperId::KtimeGetNs
            | HelperId::GetPrandomU32
            | HelperId::GetSmpProcessorId
            | HelperId::GetCurrentPidTgid => 0,
            HelperId::XdpAdjustHead => 2,
            HelperId::RedirectMap => 3,
            HelperId::PerfEventOutput | HelperId::CsumDiff => 5,
            HelperId::Unknown(_) => 5,
        }
    }

    /// Whether the helper's first argument is a map file descriptor / pointer.
    pub fn takes_map(self) -> bool {
        matches!(
            self,
            HelperId::MapLookup | HelperId::MapUpdate | HelperId::MapDelete | HelperId::RedirectMap
        )
    }

    /// Whether two calls with identical arguments are guaranteed to return the
    /// same result (i.e. the helper is a pure function of its arguments and
    /// the map state). Random numbers and timestamps are not.
    pub fn is_deterministic(self) -> bool {
        !matches!(self, HelperId::KtimeGetNs | HelperId::GetPrandomU32)
    }

    /// Assembler / display name.
    pub fn name(self) -> &'static str {
        match self {
            HelperId::MapLookup => "map_lookup_elem",
            HelperId::MapUpdate => "map_update_elem",
            HelperId::MapDelete => "map_delete_elem",
            HelperId::KtimeGetNs => "ktime_get_ns",
            HelperId::GetPrandomU32 => "get_prandom_u32",
            HelperId::GetSmpProcessorId => "get_smp_processor_id",
            HelperId::GetCurrentPidTgid => "get_current_pid_tgid",
            HelperId::PerfEventOutput => "perf_event_output",
            HelperId::CsumDiff => "csum_diff",
            HelperId::RedirectMap => "redirect_map",
            HelperId::XdpAdjustHead => "xdp_adjust_head",
            HelperId::Unknown(_) => "unknown",
        }
    }

    /// Parse an assembler helper name back into an id.
    pub fn from_name(name: &str) -> Option<HelperId> {
        HelperId::MODELED.into_iter().find(|h| h.name() == name)
    }
}

impl fmt::Display for HelperId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HelperId::Unknown(n) => write!(f, "helper_{n}"),
            other => f.write_str(other.name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn number_round_trip() {
        for h in HelperId::MODELED {
            assert_eq!(HelperId::from_number(h.number()), h);
        }
        assert_eq!(HelperId::from_number(9999), HelperId::Unknown(9999));
        assert_eq!(HelperId::Unknown(9999).number(), 9999);
    }

    #[test]
    fn name_round_trip() {
        for h in HelperId::MODELED {
            assert_eq!(HelperId::from_name(h.name()), Some(h));
        }
        assert_eq!(HelperId::from_name("nope"), None);
    }

    #[test]
    fn map_helpers_take_maps() {
        assert!(HelperId::MapLookup.takes_map());
        assert!(HelperId::MapUpdate.takes_map());
        assert!(HelperId::MapDelete.takes_map());
        assert!(!HelperId::KtimeGetNs.takes_map());
    }

    #[test]
    fn determinism_classification() {
        assert!(!HelperId::GetPrandomU32.is_deterministic());
        assert!(!HelperId::KtimeGetNs.is_deterministic());
        assert!(HelperId::MapLookup.is_deterministic());
        assert!(HelperId::GetSmpProcessorId.is_deterministic());
    }

    #[test]
    fn arg_counts() {
        assert_eq!(HelperId::MapLookup.num_args(), 2);
        assert_eq!(HelperId::MapUpdate.num_args(), 4);
        assert_eq!(HelperId::KtimeGetNs.num_args(), 0);
    }
}
