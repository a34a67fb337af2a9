//! The paper's fire-monitoring example (§1): sensors stream composite risk
//! readings (temperature, humidity, UV) at **irregular rates**, and a
//! continuous top-k query tracks the regions where conflagrations are most
//! likely. Irregular arrival is exactly what the session API's flexible
//! ingestion absorbs: each simulated second pushes however many readings
//! happened to arrive, and the engine still slides in exact `s`-steps.
//! Alert logic consumes `Entered` deltas rather than diffing snapshots.
//!
//! (A wall-clock—rather than count—based window for the same scenario is
//! `Query::window_duration(..).top(..).slide_duration(..).timed_session()`,
//! fed timestamped readings with `push_timed`; see the `time_windows`
//! example.)
//!
//! ```text
//! cargo run --release --example fire_monitor
//! ```

use sap::prelude::*;

/// Composite risk score from raw sensor readings: hotter, drier, sunnier →
/// riskier (a simple preference function F).
fn risk(temperature_c: f64, humidity_pct: f64, uv_index: f64) -> f64 {
    (temperature_c - 20.0).max(0.0) * (100.0 - humidity_pct) / 100.0 * (1.0 + uv_index / 10.0)
}

fn main() {
    // top 10 risk readings over the last 1200 reports (~10 minutes at the
    // simulated rates), refreshed every 60 reports
    let query = Query::window(1200).top(10).slide(60);
    let mut monitor = query.session().expect("valid query");

    // 200 sensors reporting at irregular intervals over ~2 hours; a heat
    // event develops around sensor region 42 midway through
    let mut lcg = 0x2545F4914F6CDD1Du64;
    let mut rnd = move || {
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((lcg >> 33) as f64) / (u32::MAX as f64)
    };

    let mut alerts = 0usize;
    let mut windows = 0usize;
    let mut id = 0u64;
    let mut burst = Vec::new();
    for t in 0..7200u64 {
        // each second a random subset of sensors reports — burst sizes
        // vary from 1 to 5 readings and never align with s = 60
        burst.clear();
        let reports = 1 + (rnd() * 4.0) as usize;
        for _ in 0..reports {
            let sensor = (rnd() * 200.0) as u64;
            let heat_event = t > 3600 && t < 5400 && sensor % 50 == 42;
            let temp = 22.0 + rnd() * 12.0 + if heat_event { 35.0 } else { 0.0 };
            let hum = 35.0 + rnd() * 40.0 - if heat_event { 25.0 } else { 0.0 };
            let uv = rnd() * 9.0;
            let score = risk(temp, hum.max(5.0), uv);
            // external readings go through the checked constructor: a
            // sensor glitch must fail loudly, not corrupt the engines
            let reading =
                Object::try_new(id * 1000 + sensor, score).expect("risk() produces finite scores");
            burst.push(reading);
            id += 1;
        }
        for slide in monitor.push(&burst) {
            windows += 1;
            // alert when a reading crosses the threshold *as it enters*
            // the leaderboard — quiet slides cost nothing to inspect
            for entered in slide.entered().filter(|o| o.score > 30.0) {
                alerts += 1;
                if alerts <= 5 || alerts.is_multiple_of(25) {
                    println!(
                        "ALERT window #{windows}: sensor region {} risk {:.1} (slide {})",
                        entered.id % 1000,
                        entered.score,
                        slide.slide
                    );
                }
            }
        }
    }

    println!("\n{windows} windows evaluated, {alerts} alert entries");
    println!(
        "candidates maintained: {} ({} readings buffered toward the next slide)",
        monitor.algorithm().candidate_count(),
        monitor.pending()
    );
}
