//! Exactly-once under client churn: several [`ResilientClient`]s per
//! named session, two of them acting as the same designer, each forcing
//! disconnects while the server drops frames and kills every connection
//! at its fourth outgoing frame. Lost verdicts are resubmitted under the
//! same `cid`; the session must run each acknowledged operation once, and
//! the live counters must agree across the hub, the scrape endpoint and
//! the `*` rollup.

use std::io::Read;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use adpm_collab::{
    CollabServer, FaultPlan, Frame, ReconnectConfig, ResilientClient, ServerOptions,
    SessionFactory, SessionOptions, WireOp,
};
use adpm_core::DesignProcessManager;
use adpm_observe::{parse_exposition, Counter, CounterSnapshot};
use adpm_scenarios::sensing_system;
use adpm_teamsim::SimulationConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

const SESSIONS: usize = 2;
/// Clients per session; designers alternate 0, 1, 0, 1, so every designer
/// of a session has two clients.
const CLIENTS_PER_SESSION: usize = 4;
const OPS_PER_CLIENT: usize = 6;
/// Each client drops its connection before these operations.
const DISCONNECT_BEFORE: [usize; 2] = [2, 4];
/// The server drops 5% of its frames and kills each connection at its
/// fourth outgoing frame (after `welcome`, `session_attached` and one
/// verdict), so the next verdict on it is always lost.
const SERVER_FAULTS: &str = "seed=11,drop=0.05,kill=4";

fn sensing_dpm() -> DesignProcessManager {
    let mut dpm = sensing_system().build_dpm(SimulationConfig::adpm(7).dpm_config());
    dpm.initialize();
    dpm
}

/// One client's next operation: mostly assign/unbind cycles on the MEMS
/// sensing area, plus occasional full verifications.
fn next_op(rng: &mut StdRng) -> WireOp {
    let r: f64 = rng.gen_range(0.0..1.0);
    if r < 0.6 {
        WireOp::Assign {
            problem: "pressure-sensor".into(),
            property: "sensor.s-area".into(),
            value: rng.gen_range(1.0..5.0),
        }
    } else if r < 0.85 {
        WireOp::Unbind {
            problem: "pressure-sensor".into(),
            property: "sensor.s-area".into(),
        }
    } else {
        WireOp::Verify {
            problem: "sensing-system".into(),
            constraints: String::new(),
        }
    }
}

/// What one client saw: verdicts, of which executed, and reconnects.
struct ClientTally {
    session: usize,
    verdicts: u64,
    executed: u64,
    reconnects: u64,
}

fn drive_client(addr: SocketAddr, index: usize) -> ClientTally {
    let session = index % SESSIONS;
    let designer = (index / SESSIONS % 2) as u32;
    let config = ReconnectConfig {
        max_attempts: 12,
        base_backoff: Duration::from_millis(2),
        max_backoff: Duration::from_millis(20),
        request_timeout: Duration::from_millis(500),
        // Every client the same jitter seed: ids must not depend on it.
        seed: 7,
    };
    let mut client = ResilientClient::connect(addr, designer, config)
        .expect("connect")
        .with_session(format!("s{}", session + 1))
        .expect("attach");
    let mut rng = StdRng::seed_from_u64(1000 + index as u64);
    let mut tally = ClientTally {
        session,
        verdicts: 0,
        executed: 0,
        reconnects: 0,
    };
    for j in 0..OPS_PER_CLIENT {
        if DISCONNECT_BEFORE.contains(&j) {
            client.force_disconnect();
        }
        match client.submit(next_op(&mut rng)).expect("submit") {
            Frame::Executed { .. } => tally.executed += 1,
            Frame::Rejected { .. } => {}
            other => panic!("unexpected verdict `{}`", other.tag()),
        }
        tally.verdicts += 1;
    }
    tally.reconnects = client.reconnects();
    tally
}

fn scrape(addr: SocketAddr) -> BTreeMap<String, CounterSnapshot> {
    let mut body = String::new();
    TcpStream::connect(addr)
        .expect("connect scrape")
        .read_to_string(&mut body)
        .expect("read scrape");
    parse_exposition(&body)
}

#[test]
fn churn_executes_every_acknowledged_operation_exactly_once() {
    let factory: SessionFactory = Box::new(|_name| Ok((sensing_dpm(), SessionOptions::default())));
    let precreate: Vec<String> = (1..=SESSIONS).map(|i| format!("s{i}")).collect();
    let server = CollabServer::bind_registry(
        sensing_dpm(),
        0,
        ServerOptions {
            fault_plan: Some(SERVER_FAULTS.parse::<FaultPlan>().expect("plan")),
            metrics_addr: Some("127.0.0.1:0".parse().expect("scrape addr")),
            ..ServerOptions::default()
        },
        SessionOptions::default(),
        Some(factory),
        &precreate,
    )
    .expect("bind registry");
    let addr = server.local_addr();
    let tallies: Vec<ClientTally> = (0..SESSIONS * CLIENTS_PER_SESSION)
        .map(|i| std::thread::spawn(move || drive_client(addr, i)))
        .collect::<Vec<_>>()
        .into_iter()
        .map(|worker| worker.join().expect("client thread"))
        .collect();
    for tally in &tallies {
        assert!(
            tally.reconnects >= DISCONNECT_BEFORE.len() as u64,
            "a client reconnected {} times",
            tally.reconnects
        );
    }

    // Reconciliation: the scrape shows exactly the hub's counters. Nothing
    // runs now, but a closing connection may still be finishing its
    // bookkeeping, so read until two hub snapshots frame an equal scrape.
    let hub = server.metrics_hub();
    let metrics = server.metrics_addr().expect("scrape listener");
    let hub_counters = || -> BTreeMap<String, CounterSnapshot> {
        hub.snapshot_all()
            .into_iter()
            .map(|(name, snapshot)| (name, snapshot.counters))
            .collect()
    };
    let (counters, scraped) = (0..50)
        .find_map(|_| {
            let before = hub_counters();
            let mut scraped = scrape(metrics);
            let rollup = scraped
                .remove("*")
                .expect("the scrape exposes the `*` rollup");
            if before == hub_counters() && before == scraped {
                return Some((before, rollup));
            }
            std::thread::sleep(Duration::from_millis(20));
            None
        })
        .expect("the scrape never matched the hub");
    let operations: u64 = counters.values().map(|c| c.get(Counter::Operations)).sum();
    assert_eq!(scraped.get(Counter::Operations), operations, "rollup");

    for session in 0..SESSIONS {
        let name = format!("s{}", session + 1);
        let mine = tallies.iter().filter(|t| t.session == session);
        let verdicts: u64 = mine.clone().map(|t| t.verdicts).sum();
        let executed: u64 = mine.map(|t| t.executed).sum();
        let session_counters = counters[&name];
        assert!(executed > 0, "{name} executed nothing");
        assert!(
            session_counters.get(Counter::SessionOps) > verdicts,
            "{name}: no verdict was lost and resubmitted ({} submits for {verdicts} verdicts)",
            session_counters.get(Counter::SessionOps)
        );
        assert_eq!(
            session_counters.get(Counter::Operations),
            executed,
            "{name}: the session ran a different number of operations than it acknowledged"
        );
    }
    let _ = server.shutdown();
}
