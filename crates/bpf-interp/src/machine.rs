//! The machine state: registers, stack, packet, context, and maps.

use crate::error::Trap;
use crate::input::{ProgramInput, ProgramOutput};
use crate::layout::{
    map_handle, MemKind, CTX_BASE, PACKET_BASE, PACKET_HEADROOM, PACKET_MAX, STACK_BASE,
};
use crate::maps::MapStore;
use bpf_isa::{CtxField, MemSize, Program, ProgramType, Reg, STACK_SIZE};

/// Capacity of the inline context buffer: the largest context any program
/// type has (the tracepoint argument record).
const CTX_MAX: usize = 64;

/// Complete state of one BPF program execution.
#[derive(Debug, Clone)]
pub struct MachineState {
    /// Register file.
    regs: [u64; 11],
    /// Which registers currently hold defined values.
    reg_init: [bool; 11],
    /// The 512-byte program stack.
    stack: [u8; STACK_SIZE],
    /// Which stack bytes have been written (read-before-write is a trap).
    stack_init: [bool; STACK_SIZE],
    /// The packet buffer: `PACKET_HEADROOM` bytes of headroom followed by the
    /// payload.
    packet: Vec<u8>,
    /// Offset of the current packet start (`data`) inside `packet`; moved by
    /// `bpf_xdp_adjust_head`.
    data_off: usize,
    /// The program context bytes (located at [`CTX_BASE`]); only the first
    /// `prog_type.ctx_size()` are part of the context.
    ctx: [u8; CTX_MAX],
    /// Map runtime state.
    pub maps: MapStore,
    /// Program type, which fixes the context layout.
    pub prog_type: ProgramType,
    /// xorshift state for `bpf_get_prandom_u32`.
    prandom_state: u64,
    /// Value of `bpf_ktime_get_ns`.
    pub time_ns: u64,
    /// Value of `bpf_get_smp_processor_id`.
    pub cpu_id: u32,
    /// Value of `bpf_get_current_pid_tgid`.
    pub pid_tgid: u64,
}

impl MachineState {
    /// Build the initial machine state for running `prog` on `input`.
    ///
    /// Register conventions at entry: `r1` holds the context pointer, `r10`
    /// the frame pointer; every other register is uninitialized.
    pub fn new(prog: &Program, input: &ProgramInput) -> MachineState {
        let payload_len = input.packet.len().min(PACKET_MAX);
        let mut packet = vec![0u8; PACKET_HEADROOM + payload_len];
        packet[PACKET_HEADROOM..].copy_from_slice(&input.packet[..payload_len]);

        let mut maps = MapStore::from_defs(&prog.maps);
        for ((map_id, key), value) in &input.maps {
            if let Some(inst) = maps.get_mut(bpf_isa::MapId(*map_id)) {
                let _ = inst.update(key, value);
            }
        }

        let mut state = MachineState {
            regs: [0; 11],
            reg_init: [false; 11],
            stack: [0u8; STACK_SIZE],
            stack_init: [false; STACK_SIZE],
            packet,
            data_off: PACKET_HEADROOM,
            ctx: [0u8; CTX_MAX],
            maps,
            prog_type: prog.prog_type,
            prandom_state: input.random_seed | 1,
            time_ns: input.time_ns,
            cpu_id: input.cpu_id,
            pid_tgid: input.pid_tgid,
        };
        state.write_ctx(Some(&input.ctx_words));
        state.set_reg_raw(Reg::R1, CTX_BASE);
        state.set_reg_raw(Reg::R10, STACK_BASE + STACK_SIZE as u64);
        state
    }

    /// Write the context slots declared by [`ProgramType::ctx_layout`]: the
    /// packet pointers from the current packet window, and the input slots
    /// from `ctx_words` when given (missing words read as 0).
    fn write_ctx(&mut self, ctx_words: Option<&[u64]>) {
        for &(offset, size, field) in self.prog_type.ctx_layout() {
            let value = match field {
                CtxField::Data | CtxField::DataMeta => self.packet_data_ptr(),
                CtxField::DataEnd => self.packet_end_ptr(),
                CtxField::Input(i) => match ctx_words {
                    Some(words) => words.get(i).copied().unwrap_or(0),
                    None => continue,
                },
            };
            self.ctx[offset..offset + size].copy_from_slice(&value.to_le_bytes()[..size]);
        }
    }

    // ----- registers --------------------------------------------------------

    /// Read a register, trapping if it has never been written.
    pub fn reg(&self, r: Reg, pc: usize) -> Result<u64, Trap> {
        if !self.reg_init[r.index()] {
            return Err(Trap::UninitRegister { reg: r, pc });
        }
        Ok(self.regs[r.index()])
    }

    /// Read a register without the initialization check (for inspection).
    pub fn reg_raw(&self, r: Reg) -> u64 {
        self.regs[r.index()]
    }

    /// Whether a register currently holds a defined value.
    pub fn reg_is_init(&self, r: Reg) -> bool {
        self.reg_init[r.index()]
    }

    /// Write a register, trapping on writes to the frame pointer.
    pub fn set_reg(&mut self, r: Reg, value: u64, pc: usize) -> Result<(), Trap> {
        if r == Reg::R10 {
            return Err(Trap::FramePointerWrite { pc });
        }
        self.set_reg_raw(r, value);
        Ok(())
    }

    /// Write a register unconditionally (used for machine setup).
    pub fn set_reg_raw(&mut self, r: Reg, value: u64) {
        self.regs[r.index()] = value;
        self.reg_init[r.index()] = true;
    }

    /// Mark a register as holding an undefined value (helper clobbering).
    pub fn clobber_reg(&mut self, r: Reg) {
        self.reg_init[r.index()] = false;
    }

    // ----- memory -----------------------------------------------------------

    /// Current value of the packet `data` pointer.
    pub fn packet_data_ptr(&self) -> u64 {
        PACKET_BASE + self.data_off as u64
    }

    /// Current value of the packet `data_end` pointer.
    pub fn packet_end_ptr(&self) -> u64 {
        PACKET_BASE + self.packet.len() as u64
    }

    /// Adjust the packet head by `delta` bytes (negative grows the packet
    /// into the headroom). Returns `false` when the adjustment is not
    /// possible, mirroring `bpf_xdp_adjust_head`.
    pub fn adjust_head(&mut self, delta: i64) -> bool {
        let new_off = self.data_off as i64 + delta;
        if new_off < 0 || new_off as usize > self.packet.len() {
            return false;
        }
        self.data_off = new_off as usize;
        self.write_ctx(None);
        true
    }

    /// Read `size` bytes at `addr`, little-endian, as a zero-extended u64.
    pub fn read_mem(&self, addr: u64, size: MemSize, pc: usize) -> Result<u64, Trap> {
        let mut buf = [0u8; 8];
        self.read_into(addr, &mut buf[..size.bytes()], pc)?;
        Ok(u64::from_le_bytes(buf))
    }

    /// Write the low `size` bytes of `value` at `addr`, little-endian.
    pub fn write_mem(
        &mut self,
        addr: u64,
        size: MemSize,
        value: u64,
        pc: usize,
    ) -> Result<(), Trap> {
        let bytes = value.to_le_bytes();
        self.write_bytes(addr, &bytes[..size.bytes()], pc)
    }

    /// Read an arbitrary byte range (used by helpers for keys and values).
    pub fn read_bytes(&self, addr: u64, len: usize, pc: usize) -> Result<Vec<u8>, Trap> {
        let mut buf = vec![0u8; len];
        self.read_into(addr, &mut buf, pc)?;
        Ok(buf)
    }

    /// Fill `buf` with the bytes at `addr`: the one bounds- and
    /// init-checked read path behind [`Self::read_mem`] and
    /// [`Self::read_bytes`].
    fn read_into(&self, addr: u64, buf: &mut [u8], pc: usize) -> Result<(), Trap> {
        let len = buf.len();
        let kind = MemKind::classify(addr).ok_or(Trap::BadPointer { value: addr, pc })?;
        match kind {
            MemKind::Stack => {
                let off = (addr - STACK_BASE) as usize;
                if off + len > STACK_SIZE {
                    return Err(Trap::OutOfBounds {
                        addr,
                        size: len,
                        pc,
                    });
                }
                for i in off..off + len {
                    if !self.stack_init[i] {
                        return Err(Trap::UninitStackRead {
                            addr: STACK_BASE + i as u64,
                            pc,
                        });
                    }
                }
                buf.copy_from_slice(&self.stack[off..off + len]);
            }
            MemKind::Packet => {
                let off = (addr - PACKET_BASE) as usize;
                if off < self.data_off || off + len > self.packet.len() {
                    return Err(Trap::OutOfBounds {
                        addr,
                        size: len,
                        pc,
                    });
                }
                buf.copy_from_slice(&self.packet[off..off + len]);
            }
            MemKind::Context => {
                let off = (addr - CTX_BASE) as usize;
                if off + len > self.prog_type.ctx_size() {
                    return Err(Trap::OutOfBounds {
                        addr,
                        size: len,
                        pc,
                    });
                }
                buf.copy_from_slice(&self.ctx[off..off + len]);
            }
            MemKind::MapValue => {
                let (id, cell, off) = self
                    .maps
                    .resolve_addr(addr)
                    .ok_or(Trap::BadPointer { value: addr, pc })?;
                let inst = self
                    .maps
                    .get(id)
                    .ok_or(Trap::BadPointer { value: addr, pc })?;
                let value = inst
                    .cell(cell)
                    .ok_or(Trap::BadPointer { value: addr, pc })?;
                if off + len > value.len() {
                    return Err(Trap::OutOfBounds {
                        addr,
                        size: len,
                        pc,
                    });
                }
                buf.copy_from_slice(&value[off..off + len]);
            }
        }
        Ok(())
    }

    /// Write an arbitrary byte range.
    pub fn write_bytes(&mut self, addr: u64, data: &[u8], pc: usize) -> Result<(), Trap> {
        let len = data.len();
        let kind = MemKind::classify(addr).ok_or(Trap::BadPointer { value: addr, pc })?;
        match kind {
            MemKind::Stack => {
                let off = (addr - STACK_BASE) as usize;
                if off + len > STACK_SIZE {
                    return Err(Trap::OutOfBounds {
                        addr,
                        size: len,
                        pc,
                    });
                }
                self.stack[off..off + len].copy_from_slice(data);
                for flag in &mut self.stack_init[off..off + len] {
                    *flag = true;
                }
                Ok(())
            }
            MemKind::Packet => {
                let off = (addr - PACKET_BASE) as usize;
                if off < self.data_off || off + len > self.packet.len() {
                    return Err(Trap::OutOfBounds {
                        addr,
                        size: len,
                        pc,
                    });
                }
                self.packet[off..off + len].copy_from_slice(data);
                Ok(())
            }
            MemKind::Context => {
                // Context structures are read-only to BPF programs (writes to
                // PTR_TO_CTX are rejected by the checker); model them as a trap.
                Err(Trap::OutOfBounds {
                    addr,
                    size: len,
                    pc,
                })
            }
            MemKind::MapValue => {
                let (id, cell, off) = self
                    .maps
                    .resolve_addr(addr)
                    .ok_or(Trap::BadPointer { value: addr, pc })?;
                let inst = self
                    .maps
                    .get_mut(id)
                    .ok_or(Trap::BadPointer { value: addr, pc })?;
                let value = inst
                    .cell_mut(cell)
                    .ok_or(Trap::BadPointer { value: addr, pc })?;
                if off + len > value.len() {
                    return Err(Trap::OutOfBounds {
                        addr,
                        size: len,
                        pc,
                    });
                }
                value[off..off + len].copy_from_slice(data);
                Ok(())
            }
        }
    }

    /// Raw views of the stack and packet regions for execution backends
    /// with native fast paths (the `bpf-jit` crate).
    ///
    /// Constructing the view is safe; a backend dereferencing the pointers
    /// must not outlive this machine state and must uphold the same
    /// semantics the safe accessors implement: stack reads require every
    /// covered `stack_init` byte to be true, stack writes set them, and
    /// packet accesses stay within `[data_off, packet_len)`. `data_off`
    /// changes across `bpf_xdp_adjust_head`, so backends must refresh the
    /// view after helper calls. The packet buffer is never reallocated
    /// during a run, and the stack lives inline in the machine state, so
    /// the state must not move while a view of it is in use.
    pub fn memory_view(&mut self) -> MemoryView {
        MemoryView {
            stack: self.stack.as_mut_ptr(),
            stack_init: self.stack_init.as_mut_ptr(),
            packet: self.packet.as_mut_ptr(),
            packet_len: self.packet.len(),
            data_off: self.data_off,
        }
    }

    /// Next value of the pseudo random stream.
    pub fn next_prandom(&mut self) -> u32 {
        // xorshift64*
        let mut x = self.prandom_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.prandom_state = x;
        (x.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 32) as u32
    }

    /// Handle value for a declared map id.
    pub fn map_handle(&self, map_id: u32) -> u64 {
        map_handle(map_id)
    }

    /// Produce the observable output of the execution, given the final `r0`.
    pub fn output(&self, ret: u64) -> ProgramOutput {
        ProgramOutput {
            ret,
            packet: self.packet[self.data_off..].to_vec(),
            maps: self.maps.contents(),
        }
    }
}

/// Raw pointers into a [`MachineState`]'s stack and packet buffers plus the
/// live packet window, produced by [`MachineState::memory_view`].
#[derive(Debug, Clone, Copy)]
pub struct MemoryView {
    /// Base of the 512-byte stack buffer.
    pub stack: *mut u8,
    /// Base of the per-byte stack initialization flags (`bool`: 0 or 1).
    pub stack_init: *mut bool,
    /// Base of the packet buffer (headroom + payload).
    pub packet: *mut u8,
    /// Total packet buffer length in bytes.
    pub packet_len: usize,
    /// Offset of the current packet start (`data`) inside the buffer.
    pub data_off: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpf_isa::{Insn, MapDef, Reg};

    fn prog() -> Program {
        Program::with_maps(
            ProgramType::Xdp,
            vec![Insn::mov64_imm(Reg::R0, 0), Insn::Exit],
            vec![MapDef::array(0, 8, 4)],
        )
    }

    fn machine() -> MachineState {
        MachineState::new(&prog(), &ProgramInput::with_packet(vec![0xab; 64]))
    }

    #[test]
    fn initial_register_state() {
        let m = machine();
        assert_eq!(m.reg_raw(Reg::R1), CTX_BASE);
        assert_eq!(m.reg_raw(Reg::R10), STACK_BASE + 512);
        assert!(m.reg_is_init(Reg::R1));
        assert!(m.reg_is_init(Reg::R10));
        assert!(!m.reg_is_init(Reg::R0));
        assert!(matches!(
            m.reg(Reg::R3, 0),
            Err(Trap::UninitRegister { reg: Reg::R3, .. })
        ));
    }

    #[test]
    fn frame_pointer_is_read_only() {
        let mut m = machine();
        assert!(matches!(
            m.set_reg(Reg::R10, 0, 3),
            Err(Trap::FramePointerWrite { pc: 3 })
        ));
        m.set_reg(Reg::R5, 9, 0).unwrap();
        assert_eq!(m.reg(Reg::R5, 1).unwrap(), 9);
    }

    #[test]
    fn stack_read_before_write_traps() {
        let mut m = machine();
        let fp = m.reg_raw(Reg::R10);
        assert!(matches!(
            m.read_mem(fp - 8, MemSize::Dword, 0),
            Err(Trap::UninitStackRead { .. })
        ));
        m.write_mem(fp - 8, MemSize::Dword, 0xdead_beef, 0).unwrap();
        assert_eq!(m.read_mem(fp - 8, MemSize::Dword, 0).unwrap(), 0xdead_beef);
        // Partial init: writing 4 bytes does not make all 8 readable.
        m.write_mem(fp - 16, MemSize::Word, 1, 0).unwrap();
        assert!(m.read_mem(fp - 16, MemSize::Dword, 0).is_err());
        assert_eq!(m.read_mem(fp - 16, MemSize::Word, 0).unwrap(), 1);
    }

    #[test]
    fn stack_bounds_enforced() {
        let mut m = machine();
        let fp = m.reg_raw(Reg::R10);
        assert!(m.write_mem(fp - 512, MemSize::Byte, 1, 0).is_ok());
        assert!(matches!(
            m.write_mem(fp - 513, MemSize::Byte, 1, 0),
            Err(Trap::BadPointer { .. }) | Err(Trap::OutOfBounds { .. })
        ));
        // An 8-byte write at fp-4 crosses the top of the stack.
        assert!(m.write_mem(fp - 4, MemSize::Dword, 1, 0).is_err());
    }

    #[test]
    fn packet_reads_and_ctx_pointers() {
        let m = machine();
        let data = m.read_mem(CTX_BASE, MemSize::Dword, 0).unwrap();
        let data_end = m.read_mem(CTX_BASE + 8, MemSize::Dword, 0).unwrap();
        assert_eq!(data, m.packet_data_ptr());
        assert_eq!(data_end, m.packet_end_ptr());
        assert_eq!(data_end - data, 64);
        assert_eq!(m.read_mem(data, MemSize::Byte, 0).unwrap(), 0xab);
        assert!(m.read_mem(data_end, MemSize::Byte, 0).is_err());
        assert!(m.read_mem(data + 60, MemSize::Dword, 0).is_err());
    }

    #[test]
    fn packet_writes_persist_to_output() {
        let mut m = machine();
        let data = m.packet_data_ptr();
        m.write_mem(data, MemSize::Half, 0x1234, 0).unwrap();
        let out = m.output(2);
        assert_eq!(out.ret, 2);
        assert_eq!(&out.packet[..2], &[0x34, 0x12]);
    }

    #[test]
    fn every_context_fits_the_inline_buffer() {
        for ty in [
            ProgramType::Xdp,
            ProgramType::SocketFilter,
            ProgramType::SchedCls,
            ProgramType::Tracepoint,
        ] {
            assert!(ty.ctx_size() <= CTX_MAX, "{ty:?}");
        }
        let tp = Program::new(ProgramType::Tracepoint, vec![Insn::Exit]);
        let m = MachineState::new(&tp, &ProgramInput::default());
        assert!(m.read_mem(CTX_BASE + 56, MemSize::Dword, 0).is_ok());
        assert!(m.read_mem(CTX_BASE + 64, MemSize::Byte, 0).is_err());
        let xdp = machine();
        assert!(xdp.read_mem(CTX_BASE + 28, MemSize::Word, 0).is_ok());
        assert!(matches!(
            xdp.read_mem(CTX_BASE + 32, MemSize::Byte, 0),
            Err(Trap::OutOfBounds { .. })
        ));
    }

    #[test]
    fn ctx_is_read_only() {
        let mut m = machine();
        assert!(m.write_mem(CTX_BASE, MemSize::Word, 7, 0).is_err());
    }

    #[test]
    fn adjust_head_moves_data_pointer() {
        let mut m = machine();
        let before = m.packet_data_ptr();
        assert!(m.adjust_head(-14));
        assert_eq!(m.packet_data_ptr(), before - 14);
        // The ctx data field is updated too.
        assert_eq!(
            m.read_mem(CTX_BASE, MemSize::Dword, 0).unwrap(),
            before - 14
        );
        // The new region is writable.
        assert!(m.write_mem(before - 14, MemSize::Byte, 1, 0).is_ok());
        // Cannot adjust beyond the headroom.
        assert!(!m.adjust_head(-(PACKET_HEADROOM as i64)));
    }

    #[test]
    fn map_value_access_via_store() {
        let mut m = machine();
        let inst = m.maps.get_mut(bpf_isa::MapId(0)).unwrap();
        let cell = inst.lookup(&0u32.to_le_bytes()).unwrap();
        let addr = m.maps.cell_addr(bpf_isa::MapId(0), cell);
        m.write_mem(addr, MemSize::Dword, 77, 0).unwrap();
        assert_eq!(m.read_mem(addr, MemSize::Dword, 0).unwrap(), 77);
        // In bounds within the value cell (value_size == 8) ...
        assert!(m.read_mem(addr + 4, MemSize::Word, 0).is_ok());
        // ... but not beyond it.
        assert!(m.read_mem(addr + 4, MemSize::Dword, 0).is_err());
        assert!(m.read_mem(addr + 8, MemSize::Byte, 0).is_err());
        let snap = m.output(0).maps.to_map_state();
        assert_eq!(
            snap[&(0, 0u32.to_le_bytes().to_vec())],
            77u64.to_le_bytes().to_vec()
        );
    }

    #[test]
    fn read_traps_carry_exact_payloads() {
        // Loads and helper byte reads share one checked path: the same trap
        // variant, faulting address, size and pc come out of both.
        let mut m = machine();
        let fp = m.reg_raw(Reg::R10);
        m.write_mem(fp - 8, MemSize::Word, 1, 0).unwrap();
        m.write_mem(fp - 2, MemSize::Half, 1, 0).unwrap();
        let uninit = Trap::UninitStackRead {
            addr: fp - 4,
            pc: 7,
        };
        assert_eq!(m.read_mem(fp - 8, MemSize::Dword, 7), Err(uninit.clone()));
        assert_eq!(m.read_bytes(fp - 8, 8, 7), Err(uninit));

        let end = m.packet_data_ptr() + 60;
        let past_end = Trap::OutOfBounds {
            addr: end,
            size: 8,
            pc: 3,
        };
        assert_eq!(m.read_mem(end, MemSize::Dword, 3), Err(past_end.clone()));
        assert_eq!(m.read_bytes(end, 8, 3), Err(past_end));
        assert_eq!(m.read_bytes(end, 4, 3), Ok(vec![0xab; 4]));

        let inst = m.maps.get_mut(bpf_isa::MapId(0)).unwrap();
        let cell = inst.lookup(&1u32.to_le_bytes()).unwrap();
        let value = m.maps.cell_addr(bpf_isa::MapId(0), cell);
        let past_cell = Trap::OutOfBounds {
            addr: value + 4,
            size: 8,
            pc: 9,
        };
        assert_eq!(
            m.read_mem(value + 4, MemSize::Dword, 9),
            Err(past_cell.clone())
        );
        assert_eq!(m.read_bytes(value + 4, 8, 9), Err(past_cell));
    }

    #[test]
    fn null_and_garbage_pointers_trap() {
        let m = machine();
        assert!(matches!(
            m.read_mem(0, MemSize::Byte, 0),
            Err(Trap::BadPointer { .. })
        ));
        assert!(matches!(
            m.read_mem(0xdead_beef_dead_beef, MemSize::Byte, 0),
            Err(Trap::BadPointer { .. })
        ));
    }

    #[test]
    fn prandom_is_deterministic_per_seed() {
        let p = prog();
        let mut a = MachineState::new(&p, &ProgramInput::default());
        let mut b = MachineState::new(&p, &ProgramInput::default());
        assert_eq!(a.next_prandom(), b.next_prandom());
        let c = MachineState::new(
            &p,
            &ProgramInput {
                random_seed: 123,
                ..ProgramInput::default()
            },
        );
        let _ = c; // different seed produces an (almost surely) different stream
    }
}
