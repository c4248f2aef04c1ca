//! The allocation shape of the optimizer's rebuild path and of the ILOC
//! parser.
//!
//! Every pass rebuilds its CFG, dominator tree and expression universe,
//! and walks every operand of every instruction, so allocations there are
//! paid once per block, register or instruction on every rebuild. Every
//! `epre serve` request is parsed, and every warm hit re-parses its cached
//! body. These tests pin the shape: operand iteration, small bit sets and
//! verifying a φ-free function allocate nothing, the rebuilt analyses make
//! a fixed number of allocations whatever the size of the function, PRE's
//! rounds after the first reuse the first round's storage, reassociation
//! builds a tree of any size in the same storage, SSA destruction
//! sequentializes an edge's copies in the same storage, and parsing
//! allocates what the parsed function owns, not a message per operand. A
//! census of one benchmark iteration (release builds only) holds the total.
//!
//! Allocations are counted per thread, so the harness's other test
//! threads do not disturb a measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use epre::{run_pass_cached, OptLevel, Optimizer};
use epre_analysis::{AnalysisCache, BitSet, ExprKey, ExprUniverse};
use epre_cfg::{Cfg, Dominators};
use epre_frontend::NamingMode;
use epre_ir::{
    parse_function, verify_function_all, BinOp, BlockId, Const, Function, FunctionBuilder, Inst,
    Module, Reg, Terminator, Ty, UnOp,
};
use epre_passes::reassoc::{self, ReassocOptions};
use epre_passes::{pre, Budget};
use epre_ssa::{build_ssa, destroy_ssa, SsaOptions};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator also runs while a thread tears down.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a const-initialised thread-local that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Run `f` and return what it returned plus the allocations (and
/// reallocations) it made on this thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let r = f();
    (r, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn the_counter_sees_allocations() {
    let (v, n) = allocations(|| black_box(Vec::<u64>::with_capacity(4)));
    drop(v);
    assert_eq!(n, 1);
}

#[test]
fn operand_iteration_allocates_nothing() {
    let (a, b, c) = (Reg(0), Reg(1), Reg(2));
    let insts = [
        Inst::Bin { op: BinOp::Add, ty: Ty::Int, dst: c, lhs: a, rhs: b },
        Inst::Un { op: UnOp::Neg, ty: Ty::Int, dst: c, src: a },
        Inst::LoadI { dst: c, value: Const::Int(7) },
        Inst::Copy { dst: c, src: b },
        Inst::Load { ty: Ty::Int, dst: c, addr: a },
        Inst::Store { ty: Ty::Int, addr: a, value: b },
        Inst::Call { dst: Some((c, Ty::Int)), callee: "f".into(), args: vec![a, b, c] },
        Inst::Phi { dst: c, args: vec![(BlockId(0), a), (BlockId(1), b)] },
    ];
    let terms = [
        Terminator::Jump { target: BlockId(1) },
        Terminator::Branch { cond: a, then_to: BlockId(1), else_to: BlockId(2) },
        Terminator::Return { value: Some(b) },
        Terminator::Return { value: None },
    ];
    let keys: Vec<ExprKey> = insts.iter().filter_map(ExprKey::of_inst).collect();
    assert_eq!(keys.len(), 3);

    let (sum, n) = allocations(|| {
        let mut sum = 0u64;
        for inst in &insts {
            sum += inst.uses().map(|r| u64::from(r.0) + 1).sum::<u64>();
        }
        for t in &terms {
            sum += t.uses().map(|r| u64::from(r.0) + 1).sum::<u64>();
            sum += t.successors().map(|s| u64::from(s.0) + 1).sum::<u64>();
        }
        for k in &keys {
            sum += k.operands().map(|r| u64::from(r.0) + 1).sum::<u64>();
        }
        black_box(sum)
    });
    assert_eq!(n, 0, "iterating operands allocated");
    // Each register or block counts its number plus one: 19 from the
    // instructions, 3 from terminator uses, 7 from successors and 4 from
    // the keys of `add`, `neg` and `loadi`.
    assert_eq!(sum, 33);
}

#[test]
fn small_bit_sets_allocate_nothing() {
    for cap in [0usize, 1, 63, 64, 65, 100, 128] {
        let (sets, n) = allocations(|| {
            let empty = BitSet::new(cap);
            let full = BitSet::full(cap);
            let copy = full.clone();
            black_box((empty, full, copy))
        });
        drop(sets);
        assert_eq!(n, 0, "bit sets of capacity {cap} allocated");
    }
    let (big, n) = allocations(|| black_box(BitSet::new(129)));
    drop(big);
    assert_eq!(n, 1, "a set above the inline capacity owns one buffer");
}

/// `segments` diamonds in a row, each with a loop from one arm back to its
/// head and a bound of its own, computing into one variable:
/// `3 * segments + 2` blocks, and new expressions in every segment.
fn ladder(segments: usize) -> Function {
    let mut b = FunctionBuilder::new("ladder", Some(Ty::Int));
    let x = b.param(Ty::Int);
    let acc = b.new_reg(Ty::Int);
    let one = b.loadi(Const::Int(1));
    b.copy_to(acc, one);
    let mut bound = x;
    for _ in 0..segments {
        let head = b.current_block();
        let (left, right, join) = (b.new_block(), b.new_block(), b.new_block());
        bound = b.bin(BinOp::Add, Ty::Int, bound, x);
        let c = b.bin(BinOp::CmpLt, Ty::Int, acc, bound);
        b.branch(c, left, right);
        b.switch_to(left);
        let t = b.bin(BinOp::Add, Ty::Int, acc, x);
        b.copy_to(acc, t);
        b.jump(join);
        b.switch_to(right);
        let t = b.bin(BinOp::Mul, Ty::Int, acc, one);
        b.copy_to(acc, t);
        let d = b.bin(BinOp::CmpGt, Ty::Int, acc, x);
        b.branch(d, head, join);
        b.switch_to(join);
    }
    let exit = b.new_block();
    b.jump(exit);
    b.switch_to(exit);
    b.ret(Some(acc));
    b.finish()
}

#[test]
fn analysis_rebuilds_allocate_independently_of_size() {
    let small = ladder(6);
    let large = ladder(66);
    assert_eq!((small.blocks.len(), large.blocks.len()), (20, 200));

    let count = |f: &Function| {
        let (cfg, cfg_allocs) = allocations(|| Cfg::new(f));
        let (dom, dom_allocs) = allocations(|| Dominators::new(f, &cfg));
        let (universe, universe_allocs) = allocations(|| ExprUniverse::new(f));
        drop((dom, universe));
        (cfg_allocs, dom_allocs, universe_allocs)
    };
    let (small_counts, large_counts) = (count(&small), count(&large));
    assert_eq!(
        small_counts, large_counts,
        "(Cfg, Dominators, ExprUniverse) allocations at 20 vs 200 blocks"
    );
}

#[test]
fn parsing_allocates_a_small_constant_per_block() {
    let count = |f: &Function| {
        let text = f.to_string();
        let (parsed, allocs) = allocations(|| parse_function(&text));
        assert_eq!(parsed.as_ref(), Ok(f), "the printed function parses back to itself");
        (text.lines().count(), allocs)
    };
    let (small_lines, small) = count(&ladder(6));
    let (large_lines, large) = count(&ladder(66));
    assert_eq!((small_lines, large_lines), (86, 866));
    println!("parsing 20 vs 200 blocks: {small} vs {large} allocations");
    // The parsed function owns about one buffer per block (its
    // instructions); 180 more blocks may cost at most two each.
    assert!(
        large - small <= 2 * 180,
        "parsing 20 vs 200 blocks made {small} vs {large} allocations"
    );
}

/// A rotated loop whose body computes `links` chains of `depth`
/// multiplications, each started by a `loadi`: PRE hoists one more link of
/// every chain per round, so it runs `depth + 1` changing rounds and one
/// closing round.
fn hoisting_chains(links: usize, depth: usize) -> Function {
    let mut b = FunctionBuilder::new("chains", Some(Ty::Int));
    let x = b.param(Ty::Int);
    let (body, exit) = (b.new_block(), b.new_block());
    let acc = b.new_reg(Ty::Int);
    let zero = b.loadi(Const::Int(0));
    b.copy_to(acc, zero);
    let enter = b.bin(BinOp::CmpGe, Ty::Int, acc, x);
    b.branch(enter, exit, body);
    b.switch_to(body);
    for k in 0..links {
        let mut link = b.loadi(Const::Int(k as i64 + 3));
        for _ in 0..depth {
            link = b.bin(BinOp::Mul, Ty::Int, link, x);
        }
        let t = b.bin(BinOp::Add, Ty::Int, acc, link);
        b.copy_to(acc, t);
    }
    let again = b.bin(BinOp::CmpLt, Ty::Int, acc, x);
    b.branch(again, body, exit);
    b.switch_to(exit);
    b.ret(Some(acc));
    b.finish()
}

#[test]
fn pre_rounds_after_the_first_allocate_a_small_constant() {
    let f = hoisting_chains(4, 5);
    let (mut once, mut all) = (f.clone(), f);
    let (_, first) = allocations(|| pre::run_once(&mut once));
    let mut cache = AnalysisCache::new();
    let (stats, total) = allocations(|| pre::run(&mut all, &mut cache, &Budget::UNLIMITED));
    let stats = stats.expect("unlimited budget");
    assert_eq!((stats.rounds, stats.exprs_hoisted), (6, 24), "{all}");
    // Six changing rounds and the closing one: six after the first. Debug
    // builds also run the verifier after every round, which allocates
    // about seven times.
    let per_round = (total - first) as f64 / 6.0;
    let bound = if cfg!(debug_assertions) { 12.0 } else { 4.0 };
    println!("PRE: first round {first} allocations, {per_round:.1} per later round");
    assert!(
        per_round <= bound,
        "PRE's later rounds made {per_round:.1} allocations each ({total} in all, {first} in the first)"
    );
}

#[test]
fn verifying_a_phi_free_function_allocates_nothing() {
    let f = ladder(66);
    let (errors, n) = allocations(|| verify_function_all(&f));
    assert!(errors.is_empty());
    assert_eq!(n, 0, "verifying a φ-free function allocated");
}

/// One block returning a single tree of `ops` operators, adds and
/// multiplications taking turns, each with a parameter operand: every
/// operator nests inside the next, so it is `ops` levels deep.
fn one_deep_tree(ops: usize) -> Function {
    let mut b = FunctionBuilder::new("tree", Some(Ty::Int));
    let (x, y) = (b.param(Ty::Int), b.param(Ty::Int));
    let mut t = x;
    for i in 0..ops {
        t = if i % 2 == 0 {
            b.bin(BinOp::Add, Ty::Int, t, x)
        } else {
            b.bin(BinOp::Mul, Ty::Int, t, y)
        };
    }
    b.ret(Some(t));
    b.finish()
}

#[test]
fn reassociating_one_sink_allocates_independently_of_its_tree() {
    for distribute in [false, true] {
        let count = |ops: usize| {
            let mut f = one_deep_tree(ops);
            let options = ReassocOptions { distribute };
            let (stats, n) = allocations(|| {
                reassoc::run(&mut f, options, &mut AnalysisCache::new(), &Budget::UNLIMITED)
            });
            assert_eq!(stats.expect("unlimited budget").ops_after, ops + 1, "{f}");
            n
        };
        let (small, large) = (count(100), count(1_000));
        println!("reassociating a 100- vs 1,000-node tree (distribute {distribute}): {small} vs {large} allocations");
        assert_eq!(small, large, "a 100- vs 1,000-node tree (distribute {distribute})");
    }
}

/// A loop that rotates `k` variables by one each iteration: its header
/// gets `k` φs whose back-edge arguments form one cycle, so the back edge
/// carries `k` copies and a temporary.
fn rotation(k: usize) -> Function {
    let mut b = FunctionBuilder::new("rotate", Some(Ty::Int));
    let n = b.param(Ty::Int);
    let vars: Vec<Reg> = (0..k).map(|_| b.new_reg(Ty::Int)).collect();
    for (i, &v) in vars.iter().enumerate() {
        let c = b.loadi(Const::Int(i as i64));
        b.copy_to(v, c);
    }
    let (head, exit) = (b.new_block(), b.new_block());
    b.jump(head);
    b.switch_to(head);
    let first = b.new_reg(Ty::Int);
    b.copy_to(first, vars[0]);
    for i in 1..k {
        b.copy_to(vars[i - 1], vars[i]);
    }
    b.copy_to(vars[k - 1], first);
    let again = b.bin(BinOp::CmpLt, Ty::Int, vars[0], n);
    b.branch(again, head, exit);
    b.switch_to(exit);
    b.ret(Some(vars[0]));
    b.finish()
}

#[test]
fn ssa_round_trips_allocate_independently_of_the_copies_on_an_edge() {
    let count = |k: usize| {
        let mut f = rotation(k);
        let (_, build) = allocations(|| build_ssa(&mut f, SsaOptions { fold_copies: true }));
        let phis: usize = f.blocks.iter().map(|b| b.phi_count()).sum();
        let (_, destroy) = allocations(|| destroy_ssa(&mut f));
        let copies = f.blocks.iter().flat_map(|b| &b.insts);
        let copies = copies.filter(|i| matches!(i, Inst::Copy { .. })).count();
        (phis, copies, build, destroy)
    };
    let (small, large) = (count(3), count(30));
    println!("SSA round trip with 3 vs 30 rotating variables (φs, copies, build, destroy): {small:?} vs {large:?}");
    assert!(small.0 >= 3 && large.0 >= 30 && large.1 > small.1, "{small:?} vs {large:?}");
    // Destruction sequentializes any copy set in the same buffers.
    assert_eq!(small.3, large.3, "destroy_ssa: 3 vs 30 copies on one edge");
    // Construction allocates per φ only: its argument list, and its entry
    // in the growing list of placements.
    assert!(
        large.2 - small.2 <= 2 * (large.0 - small.0) as u64,
        "build_ssa: {small:?} vs {large:?}"
    );
}

/// One `opt-suite` iteration of the benchmark: the 50 suite routines at
/// the four paper levels through `Optimizer::optimize`. Prints what each
/// pass allocates (the same pipelines replayed pass by pass) and holds
/// the iteration to a total.
#[test]
#[cfg_attr(debug_assertions, ignore = "counts what release builds allocate")]
fn opt_suite_iteration_allocation_census() {
    let modules: Vec<Module> = epre_suite::all_routines()
        .iter()
        .map(|r| r.compile(NamingMode::Disciplined).expect("suite routines compile"))
        .collect();
    let (_, total) = allocations(|| {
        for m in &modules {
            for level in OptLevel::PAPER_LEVELS {
                black_box(Optimizer::new(level).optimize(black_box(m)));
            }
        }
    });

    // (pass, calls, allocations), in first-run order.
    let mut per_pass: Vec<(&'static str, u64, u64)> = Vec::new();
    for m in &modules {
        for level in OptLevel::PAPER_LEVELS {
            let passes = Optimizer::new(level).passes();
            for f in &m.functions {
                let mut f = f.clone();
                let mut cache = AnalysisCache::new();
                for pass in &passes {
                    let (outcome, n) =
                        allocations(|| run_pass_cached(pass.as_ref(), &mut f, &mut cache));
                    outcome.expect("the suite optimizes cleanly");
                    match per_pass.iter_mut().find(|(name, ..)| *name == pass.name()) {
                        Some(row) => (row.1, row.2) = (row.1 + 1, row.2 + n),
                        None => per_pass.push((pass.name(), 1, n)),
                    }
                }
            }
        }
    }
    println!("one opt-suite iteration: {total} allocations");
    for (name, calls, n) in &per_pass {
        println!(
            "{name:>24}: {n:>7} in {calls:>4} calls, {:>6.1} per call",
            *n as f64 / *calls as f64
        );
    }
    assert!(total <= 130_000, "one opt-suite iteration made {total} allocations");
}
