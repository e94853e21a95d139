//! Cycle-exact oracle for the time advance in `Machine::run`.
//!
//! `run` jumps over quiescent cycles; `run_cycle_by_cycle` steps the same
//! stages through every cycle. On random programs over the whole ISA,
//! random memory layouts (user, kernel, read-only, not-present, reserved
//! and unmapped pages, with or without a fault handler) and random
//! configurations (every hardening flag, pipeline widths, latencies, cache
//! geometry, a tiny event log, a small cycle cap) the two must agree on
//! everything observable: the run result or error, every trace event with
//! its cycle stamp, the clock, the registers, the cache contents and the
//! cache statistics.

use isa::{AluOp, Cond, FReg, FenceKind, Instruction, Msr, Operand, Program, Reg};
use proptest::prelude::*;
use uarch::mmu::PageEntry;
use uarch::{ExceptionBehavior, Machine, Privilege, UarchConfig, UarchError};

const USER: u64 = 0x1000;
const KERNEL: u64 = 0x2000;
const USER2: u64 = 0x3000;
const NOT_PRESENT: u64 = 0x4000;
const RESERVED: u64 = 0x5000;
const READ_ONLY: u64 = 0x6000;
const UNMAPPED: u64 = 0x9000;

/// Values worth having in data registers and memory: addresses on every
/// kind of page (a line or two apart, so accesses both hit and miss), and
/// small integers that double as indirect-jump targets.
const POOL: [u64; 16] = [
    USER,
    USER + 0x80,
    USER2,
    USER2 + 0x40,
    KERNEL,
    KERNEL + 0x40,
    NOT_PRESENT,
    RESERVED,
    READ_ONLY,
    UNMAPPED,
    0,
    3,
    21,
    29,
    37,
    0x5ec,
];

/// Pointer registers r4..r6 hold these, so most memory operations reach
/// a mapped user page.
const POINTERS: [u64; 3] = [USER, USER2, USER + 0x80];

/// Pointer register r7 holds one of these, drawn per case.
const SPECIAL: [u64; 6] = [
    KERNEL,
    NOT_PRESENT,
    RESERVED,
    READ_ONLY,
    UNMAPPED,
    USER2 + 0x40,
];

/// One generated instruction: a kind selector and three raw operand bytes.
type RawOp = (u8, u8, u8, u8);

const KINDS: u8 = 26;

/// A data register r0..r3, or the zero register.
fn reg(x: u8) -> Reg {
    match x % 5 {
        4 => Reg::ZERO,
        n => Reg::new(n),
    }
}

/// A memory base: usually a pointer register, sometimes a data register
/// (which may hold a loaded address, or garbage that faults).
fn base(x: u8) -> Reg {
    match x % 6 {
        n @ 0..=3 => Reg::new(4 + n),
        _ => reg(x / 6),
    }
}

fn offset(x: u8) -> i64 {
    i64::from(x % 16) * 32
}

/// A direct target: usually forward (so most programs halt), sometimes
/// backward (a loop the cycle cap has to end).
fn target(pc: usize, x: u8, len: usize) -> usize {
    if x % 32 == 0 {
        pc.saturating_sub(usize::from(x % 5))
    } else {
        (pc + 1 + usize::from(x % 4)).min(len - 1)
    }
}

fn decode(ops: &[RawOp]) -> Program {
    let len = ops.len() + 1; // plus the final halt
    let mut last_load = Reg::ZERO;
    let mut insts: Vec<Instruction> = ops
        .iter()
        .enumerate()
        .map(|(pc, &(kind, a, b, c))| match kind % KINDS {
            0 => Instruction::Imm {
                dst: reg(a),
                value: POOL[usize::from(b % 16)],
            },
            1 => Instruction::Alu {
                op: [AluOp::Add, AluOp::Sub, AluOp::Xor, AluOp::Mul][usize::from(c % 4)],
                dst: reg(a),
                a: Reg::new(b % 8),
                b: Operand::Reg(reg(c / 4)),
            },
            2 => Instruction::Alu {
                op: [AluOp::Add, AluOp::And, AluOp::Shl, AluOp::Or][usize::from(c % 4)],
                dst: reg(a),
                a: Reg::new(b % 8),
                b: Operand::Imm(u64::from(c / 4) * 8),
            },
            3..=6 => {
                last_load = reg(a);
                Instruction::Load {
                    dst: last_load,
                    base: base(b),
                    offset: offset(c),
                }
            }
            7 => Instruction::Store {
                src: Reg::new(a % 8),
                base: base(b),
                offset: offset(c),
            },
            // The Spectre-v4 shape: a store whose address waits on the
            // latest load, so younger loads may bypass it.
            8 | 9 => Instruction::Store {
                src: Reg::new(a % 8),
                base: last_load,
                offset: offset(c),
            },
            10 => Instruction::BranchIf {
                cond: [Cond::Eq, Cond::Ne, Cond::Lt, Cond::Ge][usize::from(c % 4)],
                a: reg(a),
                b: reg(b),
                target: target(pc, c / 4, len),
            },
            11 => Instruction::Jump {
                target: target(pc, a, len),
            },
            12 => Instruction::JumpIndirect {
                reg: Reg::new(a % 4),
            },
            13 => Instruction::Call {
                target: target(pc, a, len),
            },
            14 => Instruction::Ret,
            15 => Instruction::Fence(
                [FenceKind::LFence, FenceKind::MFence, FenceKind::Ssbb][usize::from(a % 3)],
            ),
            16 => Instruction::CacheFlush {
                base: base(a),
                offset: offset(b),
            },
            17 => Instruction::ReadTime { dst: reg(a) },
            18 => Instruction::ReadMsr {
                dst: reg(a),
                msr: Msr(if b % 2 == 0 { 0x10 } else { 0x20 }),
            },
            19 => Instruction::FpMove {
                dst: reg(a),
                fsrc: FReg::new(b % 8),
            },
            20 => Instruction::TxBegin,
            21 => Instruction::TxEnd,
            22 => Instruction::Halt,
            _ => Instruction::Nop,
        })
        .collect();
    insts.push(Instruction::Halt);
    Program::from_instructions(insts).expect("targets are clamped into the program")
}

/// A configuration with every flag drawn from `flags` and every size and
/// latency from the remaining fields.
#[allow(clippy::type_complexity)]
fn arb_config() -> impl Strategy<Value = UarchConfig> {
    (
        any::<u32>(),
        (1usize..=24, 1usize..=4, 1usize..=4, 1usize..=8),
        (0u64..=2, 1u64..=4, 0u64..=2, 0u64..=3, 0u64..=40),
        (1u64..=5, 5u64..=90, 0u64..=4, 0u64..=3, 0u64..=3),
        (0usize..4, 1usize..=4, 0usize..4, 0u64..1000),
    )
        .prop_map(
            |(
                flags,
                (rob, fetch, issue, buffers),
                (alu, mul, branch, translation, permission),
                (hit, miss, msr, fp, stl),
                (sets, ways, events, cap),
            )| {
                let bit = |i: u32| flags & (1 << i) != 0;
                UarchConfig {
                    rob_capacity: rob,
                    fetch_width: fetch,
                    issue_width: issue,
                    cache_sets: [1, 2, 4, 64][sets],
                    cache_ways: ways,
                    lfb_entries: buffers,
                    store_buffer_entries: buffers,
                    load_port_entries: buffers,
                    rsb_depth: buffers,
                    max_events: [3, 16, 1 << 12, 1 << 16][events],
                    // One case in eight ends on a small cycle cap.
                    max_cycles: if cap < 125 { cap } else { 5_000 },
                    alu_latency: alu,
                    mul_latency: mul,
                    branch_latency: branch,
                    translation_latency: translation,
                    permission_check_latency: permission,
                    cache_hit_latency: hit,
                    cache_miss_latency: miss,
                    msr_read_latency: msr,
                    fp_latency: fp,
                    stl_forward_latency: stl,
                    transient_forwarding: bit(0),
                    mds_forwarding: bit(1),
                    l1tf_forwarding: bit(2),
                    lazy_fpu: bit(3),
                    no_speculative_loads: bit(4),
                    eager_permission_check: bit(5),
                    nda: bit(6),
                    stt: bit(7),
                    delay_on_miss: bit(8),
                    invisible_spec: bit(9),
                    cleanup_spec: bit(10),
                    flush_predictors_on_switch: bit(11),
                    kpti: bit(12),
                    ssb_disable: bit(13),
                    no_indirect_prediction: bit(14),
                    rsb_stuffing: bit(15),
                    dawg: bit(16),
                    meltdown_fix_memory_path_only: bit(17),
                }
            },
        )
}

/// Host-side setup: how the run starts.
#[derive(Debug, Clone, Copy)]
struct Setup {
    /// Run in a second, user-privileged context (lazy FPU owned by the
    /// first); otherwise in context 0 at `user` privilege.
    switch: bool,
    user: bool,
    /// 0 halts on a fault; otherwise a handler at one of the last two
    /// instructions, so a fault seldom re-runs its own instruction.
    handler: u8,
    /// Which page the last pointer register addresses.
    special: u8,
    /// Lines brought into the cache before the run, one bit per line.
    warm: u16,
    /// Seeds the memory contents.
    fill: u8,
}

fn arb_setup() -> impl Strategy<Value = Setup> {
    (
        any::<bool>(),
        any::<bool>(),
        0u8..8,
        any::<u8>(),
        any::<u16>(),
        any::<u8>(),
    )
        .prop_map(|(switch, user, handler, special, warm, fill)| Setup {
            switch,
            user,
            handler,
            special,
            warm,
            fill,
        })
}

fn machine(cfg: &UarchConfig, setup: Setup, program: &Program) -> Machine {
    let mut m = Machine::new(cfg.clone());
    m.map_user_page(USER).unwrap();
    m.map_user_page(USER2).unwrap();
    m.map_kernel_page(KERNEL).unwrap();
    let frame = |vaddr: u64| vaddr / 4096;
    m.map_page(
        NOT_PRESENT,
        PageEntry {
            present: false,
            ..PageEntry::user_rw(frame(NOT_PRESENT))
        },
    );
    m.map_page(
        RESERVED,
        PageEntry {
            reserved: true,
            ..PageEntry::user_rw(frame(RESERVED))
        },
    );
    m.map_page(
        READ_ONLY,
        PageEntry {
            writable: false,
            ..PageEntry::user_rw(frame(READ_ONLY))
        },
    );
    // The first six pool values are the mapped data lines. They hold pool
    // values, so loaded words are again addresses.
    for (i, &line) in POOL[..6].iter().enumerate() {
        for w in 0..16u64 {
            let v = POOL[(usize::from(setup.fill) + i * 5 + w as usize * 3) % POOL.len()];
            m.write_u64(line + w * 32, v).unwrap();
        }
        if setup.warm & (1 << i) != 0 {
            m.touch(line).unwrap();
        }
    }
    m.set_msr(0x10, 0x5ec);
    m.set_fpu_reg(m.current_context(), 0, 0xf00d);
    let behavior = match setup.handler {
        0 => ExceptionBehavior::Halt,
        h => ExceptionBehavior::Handler(program.len() - 1 - usize::from(h % 2)),
    };
    if setup.switch {
        let other = m.add_context(Privilege::User, behavior);
        m.switch_context(other).unwrap();
    } else {
        m.set_exception_behavior(behavior);
        if setup.user {
            m.set_privilege(Privilege::User);
        }
    }
    for i in 0..4u8 {
        let v = POOL[(usize::from(setup.fill) + 7 * usize::from(i)) % POOL.len()];
        m.set_reg(Reg::new(i), v);
    }
    for (i, &p) in POINTERS.iter().enumerate() {
        m.set_reg(Reg::new(4 + i as u8), p);
    }
    m.set_reg(
        Reg::new(7),
        SPECIAL[usize::from(setup.special) % SPECIAL.len()],
    );
    m
}

/// Everything the two steppers must agree on after a run.
fn observe(m: &Machine) -> impl PartialEq + std::fmt::Debug {
    let regs: Vec<u64> = (0..16).map(|i| m.reg(Reg::new(i))).collect();
    (
        m.events().to_vec(),
        m.events_dropped(),
        m.cycle(),
        regs,
        m.cache().resident_lines(),
        m.cache().stats(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// `run` and the cycle-by-cycle reference agree exactly, over two
    /// back-to-back runs on the same machine (the second starts warm, at a
    /// non-zero clock).
    #[test]
    fn time_advance_is_cycle_exact(
        ops in proptest::collection::vec((0u8..KINDS, any::<u8>(), any::<u8>(), any::<u8>()), 1..40),
        cfg in arb_config(),
        setup in arb_setup(),
    ) {
        let program = decode(&ops);
        let mut fast = machine(&cfg, setup, &program);
        let mut reference = machine(&cfg, setup, &program);
        for round in 0..2 {
            let got = fast.run(&program);
            let want = reference.run_cycle_by_cycle(&program);
            prop_assert_eq!(&got, &want, "round {} result\n{:?}\n{}", round, cfg, program);
            prop_assert_eq!(
                observe(&fast),
                observe(&reference),
                "round {} state\n{:?}\n{}", round, cfg, program
            );
        }
    }
}

/// A cap that falls inside a jump stops the run at exactly the clock the
/// stepping reference stops at: the run's start plus `max_cycles`.
#[test]
fn a_cap_inside_a_jump_stops_on_the_same_cycle() {
    let program = isa::ProgramBuilder::new()
        .imm(Reg::new(0), USER)
        .load(Reg::new(1), Reg::new(0), 0) // an 80-cycle miss
        .halt()
        .build()
        .unwrap();
    for cap in [0, 1, 5, 50] {
        let cfg = UarchConfig {
            max_cycles: cap,
            ..UarchConfig::default()
        };
        let mut outcomes = Vec::new();
        for stepping in [false, true] {
            let mut m = Machine::new(cfg.clone());
            m.map_user_page(USER).unwrap();
            m.map_user_page(USER2).unwrap();
            // Start the run at a non-zero clock.
            let start = m.timed_read(USER2).unwrap();
            let result = if stepping {
                m.run_cycle_by_cycle(&program)
            } else {
                m.run(&program)
            };
            assert_eq!(
                result,
                Err(UarchError::CycleLimitExceeded { limit: cap }),
                "cap {cap}"
            );
            assert_eq!(m.cycle(), start + cap, "cap {cap}");
            outcomes.push(observe(&m));
        }
        assert_eq!(outcomes[0], outcomes[1], "cap {cap}");
    }
}
