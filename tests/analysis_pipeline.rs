//! Integration: the full specification → analysis → patched-spec pipeline
//! across all four applications.

use ipa::analysis::{Analyzer, Support};
use ipa::apps::ticket::ticket_spec;
use ipa::apps::tournament::tournament_spec;
use ipa::apps::tpc::tpc_spec;
use ipa::apps::twitter::twitter_spec;
use ipa::spec::AppSpec;

fn analyze(spec: &AppSpec) -> ipa::analysis::AnalysisReport {
    Analyzer::for_spec(spec)
        .analyze(spec)
        .expect("analysis succeeds")
}

#[test]
fn every_app_spec_analyzes_to_a_fixpoint() {
    for spec in [
        tournament_spec(),
        twitter_spec(false),
        twitter_spec(true),
        ticket_spec(),
        tpc_spec(),
    ] {
        let report = analyze(&spec);
        assert!(report.converged, "{}: no fixpoint", spec.name);
        // Patched spec stays valid and re-analysis is stable.
        report.patched.validate().expect("patched spec validates");
        let again = analyze(&report.patched);
        assert!(again.applied.is_empty(), "{}: not idempotent", spec.name);
    }
}

#[test]
fn twitter_add_wins_repairs_restore_entities() {
    let report = analyze(&twitter_spec(false));
    // Under add-wins rules, some operation gains a restoring SetTrue
    // (e.g. retweet restores the tweet, matching §5.2.3's strategy).
    let restored = report.applied.iter().any(|a| {
        a.resolution
            .added
            .iter()
            .any(|e| matches!(e.kind, ipa::spec::EffectKind::SetTrue))
    });
    assert!(restored || report.applied.is_empty(), "{report}");
}

#[test]
fn compensations_only_for_numeric_invariants() {
    let t = analyze(&tournament_spec());
    assert_eq!(t.compensations.len(), 1, "only the capacity constraint");
    let tw = analyze(&twitter_spec(false));
    assert!(
        tw.compensations.is_empty(),
        "twitter has no numeric invariants"
    );
    let tpc = analyze(&tpc_spec());
    assert_eq!(tpc.compensations.len(), 1, "the stock invariant");
}

#[test]
fn table1_support_matrix_is_consistent_with_analysis() {
    // Every clause classified as IPA-supported (Yes) in Table 1 must end
    // up either repaired or conflict-free; Comp-classified clauses must
    // produce compensations.
    use ipa::analysis::classify;
    for spec in [tournament_spec(), ticket_spec(), tpc_spec()] {
        let report = analyze(&spec);
        for inv in &spec.invariants {
            let class = classify(inv);
            if class.ipa_support() == Support::Compensation {
                assert!(
                    report.compensations.iter().any(|c| c.clause == *inv),
                    "{}: clause `{inv}` should have a compensation",
                    spec.name
                );
            }
        }
    }
}

#[test]
fn flagged_pairs_get_coordination_plans() {
    // §3 Step 3: the flagged `rem_tourn ∥ do_match` pair is mechanically
    // convertible into a per-tournament exclusive reservation.
    let report = analyze(&tournament_spec());
    let plan = ipa::coord::coordination_plan(&report);
    assert_eq!(plan.entries.len(), report.flagged.len());
    for e in &plan.entries {
        assert_eq!(
            e.shared_sorts,
            vec![ipa::spec::Sort::new("Tournament")],
            "the pair contends per tournament: {e}"
        );
        let r1 = e.resource(&["t1"]);
        let r2 = e.resource(&["t2"]);
        assert_ne!(r1, r2, "different tournaments never contend");
    }
}

/// 64-bit FNV-1a: a hash whose value is fixed by its definition, not by
/// the standard library's hasher of the day.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn witness_line(kind: &str, w: &ipa::analysis::ConflictWitness, detail: &str) -> String {
    format!(
        "{kind} {}{detail} pre={:016x} merged={:016x}",
        w.label(),
        fnv1a(&format!("{:?}", w.pre)),
        fnv1a(&format!("{:?}", w.merged)),
    )
}

/// Everything an analysis report decides, one line each: the pass
/// count, every applied repair with its witness and resolution, and
/// every flagged pair with its witness. Witness states enter as hashes
/// of their `Debug` output, so a changed counter-example state shows.
fn fingerprint(report: &ipa::analysis::AnalysisReport) -> Vec<String> {
    let mut out = vec![format!("iterations {}", report.iterations)];
    for a in &report.applied {
        let detail = format!(" => {}", a.resolution);
        out.push(witness_line("applied", &a.witness, &detail));
    }
    for f in &report.flagged {
        out.push(witness_line("flagged", &f.witness, ""));
    }
    out
}

#[test]
fn analysis_reports_match_their_pinned_fingerprints() {
    // Taken before the pair queries switched to one parameter
    // instantiation per symmetry class: the reduction must leave every
    // report bit-identical, down to the counter-example states.
    let cases: [(AppSpec, &[&str]); 4] = [
        (
            tournament_spec(),
            &[
                "iterations 6",
                "applied rem_tourn(Tournament#1) ∥ enroll(Player#1, Tournament#1) => extend enroll with tournament(t) := true (enroll prevails) pre=3a02e20c448b205e merged=3b7b7c158bbb9cc0",
                "applied rem_tourn(Tournament#1) ∥ begin_tourn(Tournament#1) => extend rem_tourn with active(t) := false (rem_tourn prevails) pre=12cc1d9eb1e196bf merged=65cd9331df0c97c3",
                "applied rem_tourn(Tournament#1) ∥ finish_tourn(Tournament#1) => extend finish_tourn with tournament(t) := true (finish_tourn prevails) pre=12cc1d9eb1e196bf merged=dea59ae8c2c98bdd",
                "applied disenroll(Player#1, Tournament#1) ∥ do_match(Player#1, Player#1, Tournament#1) => extend do_match with enrolled(p, t) := true, enrolled(q, t) := true (do_match prevails) pre=237581ce75c6f16c merged=cdf5025167fbb03c",
                "flagged rem_tourn(Tournament#1) ∥ do_match(Player#1, Player#1, Tournament#1) pre=8aa04dd133027e6f merged=dc96f2304955a96f",
            ],
        ),
        (
            twitter_spec(false),
            &[
                "iterations 3",
                "applied rem_user(User#1) ∥ follow(User#1, User#1) => extend follow with user(a) := true, user(b) := true (follow prevails) pre=04a72f7cd0ae416c merged=6279178b0f2ce9e8",
                "applied retweet(Tweet#1, User#1) ∥ del_tweet(Tweet#1) => extend retweet with tweet(t) := true (retweet prevails) pre=84633158e84a446a merged=a47ec1e8912d086c",
            ],
        ),
        (ticket_spec(), &["iterations 1"]),
        (
            tpc_spec(),
            &[
                "iterations 3",
                "applied rem_product(Product#1) ∥ purchase(Order#1, Product#1) => extend purchase with product(p) := true (purchase prevails) pre=1099773cb3048359 merged=b26a6a991e4042bc",
                "flagged purchase(Order#1, Product#1) ∥ purchase(Order#1, Product#1) pre=ce195e01d550e456 merged=6815040971ee3af3",
            ],
        ),
    ];
    for (spec, pinned) in cases {
        let got = fingerprint(&analyze(&spec));
        assert_eq!(got, pinned, "{}: report fingerprint moved", spec.name);
    }
}
