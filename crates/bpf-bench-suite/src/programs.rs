//! The benchmark programs.

use bpf_isa::{asm, Insn, IsaError, MapDef, Program, ProgramType};

/// Where the original of a benchmark comes from (paper Table 1 grouping).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// Linux kernel `samples/bpf` (benchmarks 1–13).
    LinuxSamples,
    /// Facebook / katran (benchmarks 14 and 19).
    Facebook,
    /// hXDP (benchmarks 15 and 16).
    Hxdp,
    /// Cilium (benchmarks 17 and 18).
    Cilium,
}

/// One benchmark program.
#[derive(Debug, Clone)]
pub struct Benchmark {
    /// Name as used in the paper's tables.
    pub name: &'static str,
    /// Origin suite.
    pub suite: Suite,
    /// Paper Table 1 row number (1-based).
    pub row: usize,
    /// The (unoptimized) program.
    pub prog: Program,
    /// One-line description of what the program does.
    pub description: &'static str,
}

/// Assemble text that may contain `label:` definition lines and labels as
/// jump targets. Labels resolve to relative offsets, which keeps the longer
/// benchmarks readable and correct.
pub fn assemble_with_labels(text: &str) -> Result<Vec<Insn>, IsaError> {
    // First pass: record label positions (in instruction indices).
    let mut labels = std::collections::HashMap::new();
    let mut index = 0usize;
    for line in text.lines() {
        let line = strip_comment(line).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_suffix(':') {
            labels.insert(name.trim().to_string(), index);
        } else {
            index += 1;
        }
    }
    // Second pass: rewrite label operands into numeric offsets.
    let mut out = String::new();
    let mut index = 0usize;
    for line in text.lines() {
        let line = strip_comment(line).trim();
        if line.is_empty() || line.ends_with(':') {
            continue;
        }
        let rewritten = rewrite_label_operand(line, index, &labels);
        out.push_str(&rewritten);
        out.push('\n');
        index += 1;
    }
    asm::assemble(&out)
}

fn strip_comment(line: &str) -> &str {
    let cut = line.find(';').unwrap_or(line.len());
    &line[..cut]
}

fn rewrite_label_operand(
    line: &str,
    index: usize,
    labels: &std::collections::HashMap<String, usize>,
) -> String {
    let mnemonic = line.split_whitespace().next().unwrap_or("");
    let is_jump = mnemonic == "ja" || mnemonic.starts_with('j');
    if !is_jump {
        return line.to_string();
    }
    let Some(last_comma) = line.rfind([',', ' ']) else {
        return line.to_string();
    };
    let (head, tail) = line.split_at(last_comma + 1);
    let target = tail.trim();
    if let Some(&target_index) = labels.get(target) {
        let off = target_index as i64 - index as i64 - 1;
        return format!("{head} {off:+}");
    }
    line.to_string()
}

// ----- reusable code fragments ----------------------------------------------

/// Load `data`/`data_end` into r2/r3, ensure `bytes` of packet are readable,
/// jumping to `out_label` (with r0 preset to `default_action`) otherwise.
fn parse_prologue(bytes: usize, default_action: u64, out_label: &str) -> String {
    format!(
        "ldxdw r2, [r1+0]\n\
         ldxdw r3, [r1+8]\n\
         mov64 r4, r2\n\
         add64 r4, {bytes}\n\
         mov64 r0, {default_action}\n\
         jgt r4, r3, {out_label}\n"
    )
}

/// The clang -O0 idiom for `u32 a = 0; u32 b = 0;` on the stack: a register
/// zero plus two 32-bit stores (the paper's §9 example 1 — K2 coalesces it).
fn zero_two_stack_words(off_a: i32, off_b: i32) -> String {
    format!(
        "mov64 r6, 0\n\
         stxw [r10{off_a:+}], r6\n\
         stxw [r10{off_b:+}], r6\n"
    )
}

/// Store `key` at `[r10-4]`, look it up in map `map_id`, and if present
/// atomically add `delta` to the 64-bit value. Control continues at
/// `done_label` whether or not the key was found.
fn map_counter_bump(map_id: u32, key_reg_setup: &str, delta: u64, done_label: &str) -> String {
    format!(
        "{key_reg_setup}\
         stxw [r10-4], r7\n\
         ld_map_fd r1, {map_id}\n\
         mov64 r2, r10\n\
         add64 r2, -4\n\
         call map_lookup_elem\n\
         jeq r0, 0, {done_label}\n\
         mov64 r1, {delta}\n\
         xadddw [r0+0], r1\n"
    )
}

// ----- the benchmarks ---------------------------------------------------------

fn xdp_exception() -> Benchmark {
    // Tracepoint-style exception counter: bump a per-action counter map.
    let text = format!(
        "{}\
         {}\
         ldxw r7, [r1+24]\n\
         and64 r7, 3\n\
         {}\
         done:\n\
         mov64 r0, 1\n\
         exit\n",
        zero_two_stack_words(-8, -12),
        "mov64 r8, r1\nmov64 r1, r8\n", // redundant context shuffling (clang -O0 style)
        map_counter_bump(0, "", 1, "done"),
    );
    benchmark(
        "xdp_exception",
        Suite::LinuxSamples,
        1,
        &text,
        vec![MapDef::array(0, 8, 4)],
        "counts XDP exceptions per action code in an array map",
    )
}

fn xdp_redirect_err() -> Benchmark {
    let text = format!(
        "{}\
         ldxw r7, [r1+28]\n\
         and64 r7, 1\n\
         mov64 r9, r7\n\
         mov64 r7, r9\n\
         {}\
         done:\n\
         mov64 r0, 2\n\
         exit\n",
        zero_two_stack_words(-8, -16),
        map_counter_bump(0, "", 1, "done"),
    );
    benchmark(
        "xdp_redirect_err",
        Suite::LinuxSamples,
        2,
        &text,
        vec![MapDef::array(0, 8, 2)],
        "counts redirect errors in a two-entry array map",
    )
}

fn xdp_devmap_xmit() -> Benchmark {
    // Transmit statistics: bump three separate counters (packets, drops, errors).
    let text = format!(
        "mov64 r9, r1\n\
         {}\
         ldxw r7, [r9+24]\n\
         and64 r7, 1\n\
         {}\
         first_done:\n\
         ldxw r7, [r9+28]\n\
         and64 r7, 1\n\
         add64 r7, 2\n\
         {}\
         second_done:\n\
         mov64 r7, 0\n\
         mov64 r8, r7\n\
         mov64 r7, r8\n\
         {}\
         done:\n\
         mov64 r0, 2\n\
         exit\n",
        zero_two_stack_words(-8, -12),
        map_counter_bump(0, "", 1, "first_done"),
        map_counter_bump(0, "", 1, "second_done"),
        map_counter_bump(1, "", 1, "done"),
    );
    benchmark(
        "xdp_devmap_xmit",
        Suite::LinuxSamples,
        3,
        &text,
        vec![MapDef::array(0, 8, 8), MapDef::array(1, 8, 2)],
        "devmap transmit statistics: three counter updates across two maps",
    )
}

fn xdp_cpumap_kthread() -> Benchmark {
    let text = format!(
        "{}\
         ldxw r7, [r1+24]\n\
         and64 r7, 3\n\
         mov64 r8, r7\n\
         mov64 r7, r8\n\
         {}\
         done:\n\
         mov64 r6, 0\n\
         add64 r6, 0\n\
         mov64 r0, r6\n\
         add64 r0, 2\n\
         exit\n",
        zero_two_stack_words(-8, -12),
        map_counter_bump(0, "", 1, "done"),
    );
    benchmark(
        "xdp_cpumap_kthread",
        Suite::LinuxSamples,
        4,
        &text,
        vec![MapDef::array(0, 8, 4)],
        "cpumap kthread scheduling statistics",
    )
}

fn xdp_cpumap_enqueue() -> Benchmark {
    let text = format!(
        "{}\
         ldxw r7, [r1+24]\n\
         and64 r7, 7\n\
         {}\
         first_done:\n\
         mov64 r7, 1\n\
         mov64 r9, r7\n\
         mov64 r7, r9\n\
         {}\
         done:\n\
         mov64 r0, 2\n\
         exit\n",
        zero_two_stack_words(-8, -16),
        map_counter_bump(0, "", 1, "first_done"),
        map_counter_bump(0, "", 64, "done"),
    );
    benchmark(
        "xdp_cpumap_enqueue",
        Suite::LinuxSamples,
        5,
        &text,
        vec![MapDef::array(0, 8, 8)],
        "cpumap enqueue statistics: processed and bulk counters",
    )
}

fn sys_enter_open() -> Benchmark {
    // Tracepoint: count syscall entries keyed by a flag derived from args.
    let text = format!(
        "{}\
         ldxdw r7, [r1+8]\n\
         and64 r7, 1\n\
         mov64 r8, r7\n\
         mov64 r7, r8\n\
         {}\
         done:\n\
         mov64 r0, 0\n\
         mov64 r6, r0\n\
         mov64 r0, r6\n\
         exit\n",
        zero_two_stack_words(-8, -12),
        map_counter_bump(0, "", 1, "done"),
    );
    let mut b = benchmark(
        "sys_enter_open",
        Suite::LinuxSamples,
        6,
        &text,
        vec![MapDef::array(0, 8, 2)],
        "counts open(2) syscall entries in an array map",
    );
    b.prog.prog_type = ProgramType::Tracepoint;
    b
}

fn socket_filter(row: usize, name: &'static str, extra_checks: usize) -> Benchmark {
    // Socket filter: accept IPv4 TCP/UDP traffic, drop everything else.
    let mut checks = String::new();
    for i in 0..extra_checks {
        checks.push_str(&format!(
            "ldxb r5, [r2+{}]\n\
             and64 r5, 255\n\
             jeq r5, 0, drop\n",
            23 + i
        ));
    }
    let text = format!(
        "{}\
         ldxh r5, [r2+12]\n\
         be16 r5\n\
         jne r5, 2048, drop\n\
         ldxb r5, [r2+14]\n\
         rsh64 r5, 4\n\
         jne r5, 4, drop\n\
         ldxb r5, [r2+23]\n\
         jeq r5, 6, accept\n\
         jeq r5, 17, accept\n\
         {checks}\
         drop:\n\
         mov64 r0, 0\n\
         mov64 r6, r0\n\
         mov64 r0, r6\n\
         exit\n\
         accept:\n\
         mov64 r0, 65535\n\
         exit\n\
         out:\n\
         mov64 r0, 0\n\
         exit\n",
        parse_prologue(34, 0, "out"),
    );
    let mut b = benchmark(
        name,
        Suite::LinuxSamples,
        row,
        &text,
        vec![],
        "socket filter accepting IPv4 TCP/UDP and dropping everything else",
    );
    b.prog.prog_type = ProgramType::SocketFilter;
    b
}

fn xdp_router_ipv4() -> Benchmark {
    // Parse Ethernet + IPv4, look up the destination in a routing map, and
    // redirect; several bookkeeping counters on the way (analogue of the
    // kernel's xdp_router_ipv4 sample).
    let mut text = String::new();
    text.push_str(&parse_prologue(34, 2, "out"));
    text.push_str(
        "ldxh r5, [r2+12]\n\
         be16 r5\n\
         jne r5, 2048, out\n\
         ldxb r5, [r2+14]\n\
         and64 r5, 15\n\
         jne r5, 5, out\n\
         ldxb r5, [r2+22]\n\
         jeq r5, 0, drop\n\
         ldxw r7, [r2+30]\n\
         stxw [r10-4], r7\n\
         stxw [r10-8], r7\n",
    );
    // Route lookup in a hash map keyed by destination address.
    text.push_str(
        "ld_map_fd r1, 0\n\
         mov64 r2, r10\n\
         add64 r2, -4\n\
         call map_lookup_elem\n\
         jeq r0, 0, miss\n\
         ldxw r8, [r0+0]\n\
         ldxw r9, [r0+4]\n\
         mov64 r6, r9\n\
         mov64 r9, r6\n",
    );
    // Bump the forwarded counter, then redirect via the devmap.
    text.push_str(&format!(
        "mov64 r7, 0\n{}",
        map_counter_bump(1, "", 1, "redirect")
    ));
    text.push_str(
        "redirect:\n\
         ld_map_fd r1, 2\n\
         mov64 r2, r8\n\
         mov64 r3, 0\n\
         call redirect_map\n\
         exit\n\
         miss:\n",
    );
    // Missed-route counter, then pass to the stack.
    text.push_str(&format!(
        "mov64 r7, 1\n{}",
        map_counter_bump(1, "", 1, "pass")
    ));
    text.push_str(
        "pass:\n\
         mov64 r0, 2\n\
         exit\n\
         drop:\n\
         mov64 r0, 1\n\
         exit\n\
         out:\n\
         mov64 r0, 2\n\
         exit\n",
    );
    benchmark(
        "xdp_router_ipv4",
        Suite::LinuxSamples,
        9,
        &text,
        vec![
            MapDef::hash(0, 4, 8, 256),
            MapDef::array(1, 8, 4),
            MapDef::hash(2, 4, 4, 64),
        ],
        "IPv4 router: parse, route lookup, per-outcome counters, redirect",
    )
}

fn xdp_redirect(row: usize, name: &'static str) -> Benchmark {
    let text = format!(
        "{}\
         ldxh r5, [r2+12]\n\
         be16 r5\n\
         stxh [r10-8], r5\n\
         ldxh r6, [r10-8]\n\
         jne r6, 2048, out\n\
         {}\
         done:\n\
         ld_map_fd r1, 1\n\
         mov64 r2, 0\n\
         mov64 r3, 0\n\
         call redirect_map\n\
         exit\n\
         out:\n\
         mov64 r0, 2\n\
         exit\n",
        parse_prologue(14, 2, "out"),
        map_counter_bump(0, "mov64 r7, 0\n", 1, "done"),
    );
    benchmark(
        name,
        Suite::LinuxSamples,
        row,
        &text,
        vec![MapDef::array(0, 8, 2), MapDef::hash(1, 4, 4, 64)],
        "redirects IPv4 packets to another device, counting them",
    )
}

fn xdp1(row: usize, name: &'static str, rewrite_macs: bool) -> Benchmark {
    // The classic xdp1/xdp2 samples: count packets per IP protocol in an
    // array map, drop (xdp1) or rewrite MACs and transmit back out (xdp2).
    let mut text = String::new();
    text.push_str("mov64 r9, r1\n");
    text.push_str(&parse_prologue(34, 2, "out"));
    text.push_str(
        "ldxh r5, [r2+12]\n\
         be16 r5\n\
         jne r5, 2048, out\n\
         ldxb r5, [r2+14]\n\
         and64 r5, 15\n\
         lsh64 r5, 2\n\
         mov64 r6, r5\n\
         jlt r6, 20, out\n\
         ldxb r7, [r2+23]\n\
         and64 r7, 255\n\
         stxw [r10-4], r7\n\
         stxw [r10-8], r7\n\
         ld_map_fd r1, 0\n\
         mov64 r2, r10\n\
         add64 r2, -4\n\
         call map_lookup_elem\n\
         jeq r0, 0, skip\n\
         mov64 r1, 1\n\
         xadddw [r0+0], r1\n\
         skip:\n\
         ldxdw r2, [r9+0]\n\
         ldxdw r3, [r9+8]\n\
         mov64 r4, r2\n\
         add64 r4, 14\n\
         mov64 r0, 1\n\
         jgt r4, r3, out\n",
    );
    if rewrite_macs {
        // Swap source and destination MAC addresses byte by byte, the way
        // unoptimized clang spells a 6-byte memcpy-based swap (paper §9 /
        // Appendix G shows K2 coalescing exactly this shape).
        for i in 0..6 {
            text.push_str(&format!(
                "ldxb r5, [r2+{d}]\n\
                 ldxb r6, [r2+{s}]\n\
                 stxb [r2+{d}], r6\n\
                 stxb [r2+{s}], r5\n",
                d = i,
                s = i + 6
            ));
        }
        text.push_str("mov64 r0, 3\nexit\n");
    } else {
        text.push_str("mov64 r0, 1\nexit\n");
    }
    text.push_str("out:\nmov64 r0, 2\nexit\n");
    benchmark(
        name,
        Suite::LinuxSamples,
        row,
        &text,
        vec![MapDef::array(0, 8, 256)],
        if rewrite_macs {
            "per-protocol packet counter that swaps MACs and transmits (xdp2)"
        } else {
            "per-protocol packet counter that drops IPv4 traffic (xdp1)"
        },
    )
}

fn xdp_fwd() -> Benchmark {
    // Forwarding: parse, FIB lookup, TTL bookkeeping, MAC rewrite, redirect.
    let mut text = String::new();
    text.push_str("mov64 r9, r1\n");
    text.push_str(&parse_prologue(34, 2, "out"));
    text.push_str(
        "ldxh r5, [r2+12]\n\
         be16 r5\n\
         jne r5, 2048, out\n\
         ldxb r5, [r2+22]\n\
         jeq r5, 0, drop\n\
         ldxb r5, [r2+22]\n\
         jeq r5, 1, drop\n\
         ldxw r7, [r2+30]\n\
         stxw [r10-4], r7\n\
         ldxw r8, [r2+26]\n\
         stxw [r10-8], r8\n\
         stxw [r10-12], r8\n\
         ld_map_fd r1, 0\n\
         mov64 r2, r10\n\
         add64 r2, -4\n\
         call map_lookup_elem\n\
         jeq r0, 0, pass\n\
         ldxw r6, [r0+0]\n\
         ldxh r8, [r0+4]\n\
         mov64 r5, r8\n\
         mov64 r8, r5\n\
         mov64 r7, r0\n\
         ldxdw r2, [r9+0]\n\
         ldxdw r3, [r9+8]\n\
         mov64 r4, r2\n\
         add64 r4, 34\n\
         mov64 r0, 2\n\
         jgt r4, r3, out\n",
    );
    // Rewrite the destination MAC from the FIB entry (byte-by-byte -O0 style).
    for i in 0..6 {
        text.push_str(&format!(
            "ldxb r5, [r7+{src}]\n\
             stxb [r2+{dst}], r5\n",
            src = 8 + i,
            dst = i
        ));
    }
    // Decrement the TTL and bump the forwarded counter.
    text.push_str(
        "ldxb r5, [r2+22]\n\
         add64 r5, -1\n\
         stxb [r2+22], r5\n\
         mov64 r7, 0\n\
         stxw [r10-4], r7\n\
         ld_map_fd r1, 1\n\
         mov64 r2, r10\n\
         add64 r2, -4\n\
         call map_lookup_elem\n\
         jeq r0, 0, do_redirect\n\
         mov64 r1, 1\n\
         xadddw [r0+0], r1\n\
         do_redirect:\n\
         ld_map_fd r1, 2\n\
         mov64 r2, r6\n\
         and64 r2, 63\n\
         mov64 r3, 0\n\
         call redirect_map\n\
         exit\n\
         pass:\n\
         mov64 r0, 2\n\
         exit\n\
         drop:\n\
         mov64 r0, 1\n\
         exit\n\
         out:\n\
         mov64 r0, 2\n\
         exit\n",
    );
    benchmark(
        "xdp_fwd",
        Suite::LinuxSamples,
        13,
        &text,
        vec![
            MapDef::hash(0, 4, 16, 256),
            MapDef::array(1, 8, 4),
            MapDef::hash(2, 4, 4, 64),
        ],
        "full forwarding path: FIB lookup, MAC rewrite, TTL decrement, redirect",
    )
}

fn xdp_pktcntr() -> Benchmark {
    // Facebook's packet counter — the paper's running example (§9 example 1).
    let text = format!(
        "{}\
         ldxw r7, [r1+24]\n\
         and64 r7, 1\n\
         mov64 r8, r7\n\
         mov64 r7, r8\n\
         {}\
         done:\n\
         mov64 r0, 2\n\
         exit\n",
        zero_two_stack_words(-4, -8),
        map_counter_bump(0, "", 1, "done"),
    );
    benchmark(
        "xdp_pktcntr",
        Suite::Facebook,
        14,
        &text,
        vec![MapDef::array(0, 8, 2)],
        "katran's per-interface packet counter (the paper's coalescing example)",
    )
}

fn xdp_fw() -> Benchmark {
    // hXDP firewall: parse L2-L4, check a flow table, drop or pass.
    let mut text = String::new();
    text.push_str(&parse_prologue(42, 2, "out"));
    text.push_str(
        "ldxh r5, [r2+12]\n\
         be16 r5\n\
         jne r5, 2048, out\n\
         ldxb r5, [r2+14]\n\
         and64 r5, 15\n\
         jne r5, 5, out\n\
         ldxb r6, [r2+23]\n\
         jeq r6, 6, l4\n\
         jeq r6, 17, l4\n\
         ja out\n\
         l4:\n\
         ldxw r7, [r2+26]\n\
         ldxw r8, [r2+30]\n\
         ldxh r9, [r2+34]\n\
         stxw [r10-8], r7\n\
         stxw [r10-12], r8\n\
         stxw [r10-16], r9\n\
         stxw [r10-4], r7\n\
         ld_map_fd r1, 0\n\
         mov64 r2, r10\n\
         add64 r2, -4\n\
         call map_lookup_elem\n\
         jeq r0, 0, allow\n\
         ldxdw r5, [r0+0]\n\
         jeq r5, 0, allow\n\
         mov64 r0, 1\n\
         exit\n\
         allow:\n\
         mov64 r6, 0\n\
         stxw [r10-20], r6\n\
         stxw [r10-24], r6\n\
         mov64 r0, 2\n\
         exit\n\
         out:\n\
         mov64 r0, 2\n\
         exit\n",
    );
    benchmark(
        "xdp_fw",
        Suite::Hxdp,
        15,
        &text,
        vec![MapDef::hash(0, 4, 8, 512)],
        "stateless firewall: parse 5-tuple, consult a block list, drop or pass",
    )
}

fn xdp_map_access() -> Benchmark {
    let text = format!(
        "{}\
         ldxb r7, [r2+0]\n\
         and64 r7, 7\n\
         mov64 r9, r7\n\
         mov64 r7, r9\n\
         {}\
         done:\n\
         mov64 r6, 0\n\
         stxb [r10-8], r6\n\
         mov64 r0, 2\n\
         exit\n\
         out:\n\
         mov64 r0, 2\n\
         exit\n",
        parse_prologue(14, 2, "out"),
        map_counter_bump(0, "", 1, "done"),
    );
    benchmark(
        "xdp_map_access",
        Suite::Hxdp,
        16,
        &text,
        vec![MapDef::array(0, 8, 8)],
        "per-byte-class counter exercising array map access",
    )
}

fn from_network() -> Benchmark {
    // Cilium's from-network hook: mark packets and account them by direction.
    let text = format!(
        "{}\
         ldxh r5, [r2+12]\n\
         be16 r5\n\
         stxh [r10-10], r5\n\
         ldxh r6, [r10-10]\n\
         jne r6, 2048, out\n\
         ldxb r5, [r2+1]\n\
         stxb [r2+1], r5\n\
         ldxb r7, [r2+23]\n\
         and64 r7, 3\n\
         {}\
         done:\n\
         mov64 r0, 2\n\
         exit\n\
         out:\n\
         mov64 r0, 2\n\
         exit\n",
        parse_prologue(34, 2, "out"),
        map_counter_bump(0, "", 1, "done"),
    );
    benchmark(
        "from-network",
        Suite::Cilium,
        17,
        &text,
        vec![MapDef::array(0, 8, 4)],
        "Cilium from-network hook: packet accounting and remarking",
    )
}

fn recvmsg4() -> Benchmark {
    // Cilium's recvmsg4: rewrite a sockaddr through a service map.
    let mut text = String::new();
    text.push_str(&zero_two_stack_words(-8, -12));
    text.push_str(
        "ldxw r7, [r1+24]\n\
         stxw [r10-4], r7\n\
         stxw [r10-16], r7\n\
         ldxw r8, [r1+28]\n\
         stxw [r10-20], r8\n\
         stxw [r10-24], r8\n\
         ld_map_fd r1, 0\n\
         mov64 r2, r10\n\
         add64 r2, -4\n\
         call map_lookup_elem\n\
         jeq r0, 0, miss\n\
         ldxw r6, [r0+0]\n\
         ldxw r9, [r0+4]\n\
         stxw [r10-28], r6\n\
         stxw [r10-32], r9\n\
         ldxw r6, [r10-28]\n\
         stxw [r10-36], r6\n",
    );
    text.push_str(&format!(
        "mov64 r7, 0\n{}",
        map_counter_bump(1, "", 1, "tail")
    ));
    text.push_str(
        "tail:\n\
         mov64 r0, 0\n\
         mov64 r6, r0\n\
         mov64 r0, r6\n\
         exit\n\
         miss:\n",
    );
    text.push_str(&format!(
        "mov64 r7, 1\n{}",
        map_counter_bump(1, "", 1, "tail2")
    ));
    text.push_str(
        "tail2:\n\
         mov64 r0, 0\n\
         exit\n",
    );
    let mut b = benchmark(
        "recvmsg4",
        Suite::Cilium,
        18,
        &text,
        vec![MapDef::hash(0, 4, 8, 1024), MapDef::array(1, 8, 4)],
        "Cilium recvmsg4 service translation with per-outcome counters",
    );
    b.prog.prog_type = ProgramType::SchedCls;
    b
}

fn xdp_balancer() -> Benchmark {
    // A katran-style L4 load balancer: parse, hash the 5-tuple, consult the
    // VIP and real-server maps, rewrite the destination, and transmit. The
    // original is by far the paper's largest benchmark; this analogue repeats
    // the per-service processing for several services to reach a comparable
    // scale while staying loop-free.
    let mut text = String::new();
    text.push_str(&parse_prologue(42, 2, "out"));
    text.push_str(
        "ldxh r5, [r2+12]\n\
         be16 r5\n\
         jne r5, 2048, out\n\
         ldxb r5, [r2+14]\n\
         and64 r5, 15\n\
         jne r5, 5, out\n\
         ldxb r6, [r2+23]\n\
         jeq r6, 6, proto_ok\n\
         jeq r6, 17, proto_ok\n\
         ja out\n\
         proto_ok:\n",
    );
    // Flow hash: the balancer_kern-style mixing with masks and shifts
    // (the context-dependent rewrite of §9 example 2 lives in code like this).
    // The packet data pointer is parked in the callee-saved r9 so the
    // per-service blocks can rewrite headers after their map lookups.
    text.push_str(
        "ldxw r7, [r2+26]\n\
         ldxw r8, [r2+30]\n\
         ldxw r6, [r2+34]\n\
         mov64 r0, r7\n\
         lddw r3, 0xffe00000\n\
         and64 r0, r3\n\
         rsh64 r0, 21\n\
         xor64 r0, r8\n\
         mov64 r5, r6\n\
         lsh64 r5, 7\n\
         xor64 r0, r5\n\
         stxw [r10-4], r0\n\
         stxw [r10-48], r0\n\
         mov64 r9, r2\n",
    );
    for service in 0..4 {
        let vip_map = service as u32;
        text.push_str(&format!(
            "ldxw r6, [r10-48]\n\
             and64 r6, 255\n\
             add64 r6, {service}\n\
             stxw [r10-4], r6\n\
             stxw [r10-{spill}], r6\n\
             ld_map_fd r1, {vip_map}\n\
             mov64 r2, r10\n\
             add64 r2, -4\n\
             call map_lookup_elem\n\
             jeq r0, 0, svc_{service}_miss\n\
             ldxw r7, [r0+0]\n\
             ldxw r8, [r0+4]\n\
             stxw [r9+30], r7\n\
             ldxb r5, [r9+22]\n\
             add64 r5, -1\n\
             stxb [r9+22], r5\n\
             mov64 r3, r8\n\
             mov64 r8, r3\n\
             ja svc_{service}_done\n\
             svc_{service}_miss:\n\
             mov64 r7, 0\n\
             add64 r7, 0\n\
             svc_{service}_done:\n",
            service = service,
            spill = 52 + 4 * service,
            vip_map = vip_map,
        ));
    }
    // Final accounting and transmit.
    text.push_str(&format!(
        "mov64 r7, 0\n{}",
        map_counter_bump(4, "", 1, "tx")
    ));
    text.push_str(
        "tx:\n\
         mov64 r0, 3\n\
         exit\n\
         out:\n\
         mov64 r0, 2\n\
         exit\n",
    );
    benchmark(
        "xdp-balancer",
        Suite::Facebook,
        19,
        &text,
        vec![
            MapDef::hash(0, 4, 8, 512),
            MapDef::hash(1, 4, 8, 512),
            MapDef::hash(2, 4, 8, 512),
            MapDef::hash(3, 4, 8, 512),
            MapDef::array(4, 8, 8),
        ],
        "katran-style L4 load balancer: flow hash, VIP lookups, rewrite, transmit",
    )
}

fn benchmark(
    name: &'static str,
    suite: Suite,
    row: usize,
    text: &str,
    maps: Vec<MapDef>,
    description: &'static str,
) -> Benchmark {
    let insns = assemble_with_labels(text)
        .unwrap_or_else(|e| panic!("benchmark {name} failed to assemble: {e}"));
    let prog = Program::with_maps(ProgramType::Xdp, insns, maps);
    Benchmark {
        name,
        suite,
        row,
        prog,
        description,
    }
}

/// All 19 benchmarks, in Table 1 order.
pub fn all() -> Vec<Benchmark> {
    vec![
        xdp_exception(),
        xdp_redirect_err(),
        xdp_devmap_xmit(),
        xdp_cpumap_kthread(),
        xdp_cpumap_enqueue(),
        sys_enter_open(),
        socket_filter(7, "socket/0", 1),
        socket_filter(8, "socket/1", 2),
        xdp_router_ipv4(),
        xdp_redirect(10, "xdp_redirect"),
        xdp1(11, "xdp1_kern/xdp1", false),
        xdp1(12, "xdp2_kern/xdp1", true),
        xdp_fwd(),
        xdp_pktcntr(),
        xdp_fw(),
        xdp_map_access(),
        from_network(),
        recvmsg4(),
        xdp_balancer(),
    ]
}

/// Look up a benchmark by its Table 1 name.
pub fn by_name(name: &str) -> Option<Benchmark> {
    all().into_iter().find(|b| b.name == name)
}

/// The six XDP programs measured for throughput and latency in Tables 2/3.
pub fn throughput_subset() -> Vec<Benchmark> {
    [
        "xdp2_kern/xdp1",
        "xdp_router_ipv4",
        "xdp_fwd",
        "xdp1_kern/xdp1",
        "xdp_map_access",
        "xdp-balancer",
    ]
    .iter()
    .filter_map(|n| by_name(n))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpf_interp::{run, InputGenerator};
    use bpf_safety::LinuxVerifier;

    #[test]
    fn there_are_nineteen_benchmarks() {
        let benches = all();
        assert_eq!(benches.len(), 19);
        let rows: Vec<usize> = benches.iter().map(|b| b.row).collect();
        assert_eq!(rows, (1..=19).collect::<Vec<_>>());
        // Every suite of the paper is represented.
        for suite in [
            Suite::LinuxSamples,
            Suite::Facebook,
            Suite::Hxdp,
            Suite::Cilium,
        ] {
            assert!(
                benches.iter().any(|b| b.suite == suite),
                "{suite:?} missing"
            );
        }
    }

    #[test]
    fn all_benchmarks_validate_structurally() {
        for b in all() {
            b.prog
                .validate()
                .unwrap_or_else(|e| panic!("{}: {e}", b.name));
            assert!(
                b.prog.real_len() >= 15,
                "{} suspiciously small: {}",
                b.name,
                b.prog.real_len()
            );
        }
    }

    #[test]
    fn all_benchmarks_pass_the_kernel_checker_model() {
        let verifier = LinuxVerifier::default();
        for b in all() {
            let (verdict, _) = verifier.load(&b.prog);
            assert!(verdict.is_accept(), "{} rejected: {verdict:?}", b.name);
        }
    }

    #[test]
    fn all_benchmarks_run_on_random_inputs_without_trapping() {
        for b in all() {
            let mut generator = InputGenerator::new(0xbead + b.row as u64);
            for input in generator.generate_suite(&b.prog, 8) {
                run(&b.prog, &input).unwrap_or_else(|e| panic!("{} trapped: {e}", b.name));
            }
        }
    }

    #[test]
    fn benchmarks_exercise_their_maps() {
        // Programs that declare maps should actually touch them on suitable
        // inputs (checked by looking for changed map contents on at least one
        // input for counter-style benchmarks).
        let b = by_name("xdp_pktcntr").unwrap();
        let mut generator = InputGenerator::new(5);
        let mut touched = false;
        for input in generator.generate_suite(&b.prog, 8) {
            let out = run(&b.prog, &input).unwrap();
            if out.output.maps.to_map_state() != input.maps {
                touched = true;
            }
        }
        assert!(touched, "xdp_pktcntr never updated its counter map");
    }

    #[test]
    fn throughput_subset_matches_table_2() {
        let subset = throughput_subset();
        assert_eq!(subset.len(), 6);
        assert!(subset.iter().any(|b| b.name == "xdp-balancer"));
    }

    #[test]
    fn by_name_round_trips() {
        for b in all() {
            assert_eq!(by_name(b.name).unwrap().row, b.row);
        }
        assert!(by_name("nonexistent").is_none());
    }

    #[test]
    fn label_assembler_resolves_forward_and_backward_labels() {
        let insns =
            assemble_with_labels("mov64 r0, 0\njeq r0, 0, done\nmov64 r0, 1\ndone:\nexit").unwrap();
        assert_eq!(insns.len(), 4);
        assert_eq!(insns[1].jump_target(1), Some(3));
    }

    #[test]
    fn balancer_is_the_largest_benchmark() {
        let benches = all();
        let balancer = benches.iter().find(|b| b.name == "xdp-balancer").unwrap();
        for b in &benches {
            assert!(balancer.prog.real_len() >= b.prog.real_len());
        }
        assert!(balancer.prog.real_len() > 100, "balancer should be large");
    }
}
