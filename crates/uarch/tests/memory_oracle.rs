//! Oracle tests for the simulator's address-keyed tables.
//!
//! [`Memory`] stores whole 64-byte lines; its contract is still the one of
//! a sparse word map. Random write/read/clear sequences run against a
//! plain `HashMap<u64, u64>` of aligned words, and every observation must
//! agree. The page table gets a fixed map/unmap/translate sequence whose
//! results are pinned.

use proptest::prelude::*;
use std::collections::HashMap;
use uarch::mmu::{PageEntry, PageTable, PrivilegeLevel, Translation, PAGE_SIZE};
use uarch::{Fault, Memory};

#[derive(Debug, Clone)]
enum Op {
    Write(u64, u64),
    Read(u64),
    Clear,
}

/// Mostly a few lines' worth of unaligned addresses, so writes collide on
/// words and lines; sometimes anywhere in the address space.
fn arb_addr() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..0x200, 0x7fc0u64..0x8040, any::<u64>()]
}

/// Zero is drawn often: it is the value that releases storage.
fn arb_value() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), Just(0u64), 1u64..4, any::<u64>()]
}

/// Writes twice as often as reads; one op in 32 clears.
fn arb_op() -> impl Strategy<Value = Op> {
    (0u8..32, arb_addr(), arb_value()).prop_map(|(kind, addr, value)| match kind {
        0 => Op::Clear,
        1..=10 => Op::Read(addr),
        _ => Op::Write(addr, value),
    })
}

fn check_line(mem: &Memory, addr: u64) {
    let base = addr & !63;
    let words: Vec<u64> = (0..8).map(|i| mem.read_u64(base + i * 8)).collect();
    assert_eq!(mem.read_line(addr).to_vec(), words, "line {base:#x}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Line-granular memory behaves exactly like a word map.
    #[test]
    fn memory_agrees_with_a_word_map(ops in prop::collection::vec(arb_op(), 1..200)) {
        let mut mem = Memory::new();
        let mut oracle: HashMap<u64, u64> = HashMap::new();
        for op in &ops {
            match *op {
                Op::Write(addr, value) => {
                    mem.write_u64(addr, value);
                    if value == 0 {
                        oracle.remove(&(addr & !7));
                    } else {
                        oracle.insert(addr & !7, value);
                    }
                    check_line(&mem, addr);
                }
                Op::Read(addr) => {
                    let want = oracle.get(&(addr & !7)).copied().unwrap_or(0);
                    prop_assert_eq!(mem.read_u64(addr), want, "read {:#x}", addr);
                    check_line(&mem, addr);
                }
                Op::Clear => {
                    mem.clear();
                    oracle.clear();
                }
            }
            prop_assert_eq!(mem.populated_words(), oracle.len());
        }
        for (&addr, &value) in &oracle {
            prop_assert_eq!(mem.read_u64(addr), value);
            check_line(&mem, addr);
        }
    }
}

#[test]
fn page_table_results_are_pinned() {
    let mut t = PageTable::new();
    // The Flush+Reload probe array: 256 consecutive user pages.
    for vpn in 0x100..0x200 {
        t.map(vpn, PageEntry::user_rw(vpn));
    }
    t.map(0xffff_ffff_ffff, PageEntry::kernel_rw(0x42));
    t.map(
        0x300,
        PageEntry {
            present: false,
            ..PageEntry::user_rw(0x301)
        },
    );

    let ok = |paddr: u64| Translation {
        paddr: Some(paddr),
        fault: None,
    };
    let user = PrivilegeLevel::User;
    let kernel = PrivilegeLevel::Kernel;

    assert_eq!(t.translate(0x10_0008, false, user), ok(0x10_0008));
    assert_eq!(t.translate(0x1f_fff8, true, user), ok(0x1f_fff8));
    let top = 0xffff_ffff_ffff * PAGE_SIZE + 0x10;
    assert_eq!(
        t.translate(top, false, user),
        Translation {
            paddr: Some(0x42 * PAGE_SIZE + 0x10),
            fault: Some(Fault::PrivilegeViolation { vaddr: top }),
        }
    );
    assert_eq!(t.translate(top, false, kernel), ok(0x42 * PAGE_SIZE + 0x10));
    assert_eq!(
        t.translate(0x30_0020, false, kernel),
        Translation {
            paddr: Some(0x30_1020),
            fault: Some(Fault::PageNotPresent { vaddr: 0x30_0020 }),
        }
    );
    assert_eq!(
        t.translate(0x20_0000, false, kernel),
        Translation {
            paddr: None,
            fault: Some(Fault::PageNotMapped { vaddr: 0x20_0000 }),
        }
    );

    // Unmap returns the entry once; a remap replaces the frame.
    assert_eq!(t.unmap(0x180), Some(PageEntry::user_rw(0x180)));
    assert_eq!(t.unmap(0x180), None);
    assert_eq!(t.translate(0x18_0000, false, kernel).paddr, None);
    t.map(0x181, PageEntry::user_rw(0x999));
    assert_eq!(t.translate(0x18_1abc, false, user), ok(0x99_9abc));
    assert_eq!(t.entry(0x181), Some(&PageEntry::user_rw(0x999)));
    assert_eq!(t.iter().count(), 256 - 1 + 2);

    // Clear drops every mapping.
    t.clear();
    assert_eq!(t.iter().count(), 0);
    assert_eq!(t.translate(0x10_0008, false, user).paddr, None);
}
