//! The physics tick allocates nothing per running workload: with a
//! counting global allocator installed, a quiet tick (no journal event)
//! costs a small constant number of heap allocations whether 10 or 80
//! services are running.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use quasar_cluster::{ClusterSpec, Manager, NodeAlloc, ServerId, SimConfig, Simulation, World};
use quasar_workloads::generate::Generator;
use quasar_workloads::{
    FrameworkParams, LoadPattern, NodeResources, PlatformCatalog, Priority, WorkloadClass,
    WorkloadId,
};

/// Counts allocations made by the current thread, so the test
/// harness's other threads cannot disturb a measurement.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with` tolerates allocations during thread teardown.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to the system allocator unchanged; the
// counter is a const-initialized thread-local that never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Places every arrival at once, round-robin over the servers with at
/// least 8 cores: odd ids on two neighbouring servers, even ids on one,
/// so servers carry co-located and multi-node tenants. Does nothing on
/// ticks, so a tick's allocations are the world's.
struct SpreadManager {
    next: usize,
}

impl Manager for SpreadManager {
    fn name(&self) -> &str {
        "spread"
    }

    fn on_arrival(&mut self, world: &mut World, id: WorkloadId) {
        let big: Vec<ServerId> = world
            .servers()
            .iter()
            .filter(|s| s.total_cores() >= 8)
            .map(|s| s.id())
            .collect();
        let slice = NodeResources::new(1, 1.0);
        let mut nodes = vec![NodeAlloc::immediate(big[self.next % big.len()], slice)];
        if id.0 % 2 == 1 {
            nodes.push(NodeAlloc::immediate(
                big[(self.next + 1) % big.len()],
                slice,
            ));
        }
        self.next += 1;
        world
            .place(id, nodes, FrameworkParams::default())
            .expect("room for every service");
    }

    fn on_tick(&mut self, _world: &mut World) {}

    fn on_completion(&mut self, _world: &mut World, _id: WorkloadId) {}
}

/// Runs `services` services (every third overloaded, so the QoS ledger
/// records violations) through a warm-up, then returns the largest and
/// the total allocation count over the measured quiet ticks.
fn quiet_tick_allocations(services: usize) -> (u64, u64) {
    let catalog = PlatformCatalog::local();
    let config = SimConfig {
        noise: 0.0,
        ..SimConfig::default()
    };
    let mut sim = Simulation::new(
        ClusterSpec::uniform(catalog.clone(), 3),
        Box::new(SpreadManager { next: 0 }),
        config,
    );
    let mut generator = Generator::new(catalog, 5);
    for i in 0..services {
        let qps = if i % 3 == 0 { 5.0e6 } else { 2_000.0 };
        let svc = generator.service(
            WorkloadClass::Memcached,
            format!("mc{i}"),
            0.5,
            LoadPattern::Flat { qps },
            Priority::Guaranteed,
        );
        sim.submit_at(svc, 0.0);
    }
    let tick = sim.world().tick_s();
    // Warm-up: placements, the first ledger entries, and every buffer
    // (including the violation-depth series) reaching its steady size.
    sim.run_until(200.0 * tick);
    assert_eq!(
        sim.world()
            .count_in_state(quasar_cluster::JobState::Running),
        services
    );

    let (mut max, mut total, mut measured) = (0, 0, 0);
    for _ in 0..120 {
        let journal_before = sim.world().journal().len();
        let target = sim.world().now() + tick;
        let before = allocations();
        sim.run_until(target);
        let spent = allocations() - before;
        if sim.world().journal().len() == journal_before {
            max = max.max(spent);
            total += spent;
            measured += 1;
        }
    }
    assert!(measured >= 100, "most ticks are quiet ({measured} of 120)");
    (max, total)
}

#[test]
fn quiet_ticks_allocate_a_small_constant_independent_of_running_services() {
    let (max_small, total_small) = quiet_tick_allocations(10);
    let (max_large, total_large) = quiet_tick_allocations(80);
    assert!(
        total_large <= total_small,
        "80 services allocated {total_large} times over the quiet ticks, 10 services {total_small}"
    );
    for (services, max) in [(10, max_small), (80, max_large)] {
        assert!(
            max <= 8,
            "a quiet tick with {services} services allocated {max} times"
        );
    }
}
