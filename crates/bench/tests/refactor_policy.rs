//! The factorization lifecycle is answer-invisible. The Fig. 4 smoke's RET
//! instances are solved twice: with the default policy, which carries the
//! LU factors across session re-solves, and with
//! [`RefactorPolicy::Always`], which refactorizes at every solve entry and
//! never reuses. `b̂`, the final extension and the LPDAR schedules must be
//! bit-identical; only the work counters may differ.
//!
//! ```text
//! cargo test --release -p wavesched-bench --test refactor_policy
//! ```

use wavesched_bench::{fig4_job_counts, fig4_ret_case, set_smoke};
use wavesched_core::ret::{solve_ret, RetConfig};
use wavesched_lp::{RefactorPolicy, SimplexConfig};

#[test]
fn fig4_smoke_ret_answers_match_refactor_always() {
    set_smoke();
    let mut reuse_hits = 0;
    for n in fig4_job_counts() {
        let (g, jobs, cfg, reuse_cfg) = fig4_ret_case(n);
        let always_cfg = RetConfig {
            lp: SimplexConfig {
                refactor_policy: RefactorPolicy::Always,
                ..reuse_cfg.lp.clone()
            },
            ..reuse_cfg.clone()
        };
        let reuse = solve_ret(&g, &jobs, &cfg, &reuse_cfg)
            .expect("ret with LU reuse")
            .expect("extensible");
        let always = solve_ret(&g, &jobs, &cfg, &always_cfg)
            .expect("ret with refactor-always")
            .expect("extensible");
        assert_eq!(
            reuse.b_lp.to_bits(),
            always.b_lp.to_bits(),
            "{n} jobs: b_lp"
        );
        assert_eq!(
            reuse.b_final.to_bits(),
            always.b_final.to_bits(),
            "{n} jobs: b_final"
        );
        assert_eq!(reuse.lpdar, always.lpdar, "{n} jobs: LPDAR schedule");
        assert_eq!(
            always.stats.lu_reuse_hits, 0,
            "{n} jobs: Always must never reuse"
        );
        reuse_hits += reuse.stats.lu_reuse_hits;
    }
    assert!(
        reuse_hits > 0,
        "LU reuse must engage somewhere in the sweep"
    );
}
