//! Regression for the CI sharding profile: `GROUPSAFE_SHARDS` (with
//! `GROUPSAFE_CROSS_SHARD`) must reach the built system, a malformed
//! value of either variable must fail the build loudly, and explicit
//! shard setters must still win over it.
//!
//! One test, alone in its own binary: the env vars are process-global,
//! so it must not race sibling tests that build systems concurrently.

use groupsafe::core::{BuildError, ShardSpec, ShardStrategy, System};

fn set(var: &str, value: Option<&str>) {
    match value {
        Some(v) => std::env::set_var(var, v),
        None => std::env::remove_var(var),
    }
}

#[test]
fn env_profile_parses_plumbs_and_yields_to_explicit() {
    // ---- parsing: every recognised profile, and a typed error on typos
    // (a malformed value must never silently build an unsharded system —
    // that would make a "sharded" CI pass vacuous).
    let parse = |shards: Option<&str>, cross: Option<&str>| {
        set("GROUPSAFE_SHARDS", shards);
        set("GROUPSAFE_CROSS_SHARD", cross);
        let got = ShardSpec::from_env();
        set("GROUPSAFE_SHARDS", None);
        set("GROUPSAFE_CROSS_SHARD", None);
        got
    };
    let hashed = |groups, cross_fraction| {
        Ok(Some(ShardSpec {
            groups,
            strategy: ShardStrategy::Hash,
            cross_fraction,
        }))
    };
    assert_eq!(parse(None, None), Ok(None));
    assert_eq!(parse(Some(""), None), Ok(None));
    assert_eq!(parse(Some("off"), None), Ok(None));
    assert_eq!(parse(Some("OFF"), Some("0.2")), Ok(None));
    assert_eq!(parse(Some("3"), None), hashed(3, 0.0));
    assert_eq!(parse(Some(" 3 "), Some("")), hashed(3, 0.0));
    assert_eq!(parse(Some("1"), Some("0")), hashed(1, 0.0));
    assert_eq!(parse(Some("4"), Some("0.1")), hashed(4, 0.1));
    assert_eq!(parse(Some("2"), Some("1")), hashed(2, 1.0));
    for bad in ["three", "0", "-2", "3.5", "3 groups", "on"] {
        assert!(
            parse(Some(bad), None).is_err(),
            "GROUPSAFE_SHARDS={bad:?} must be a typed error, not an unsharded run"
        );
    }
    for bad in ["10%", "1.5", "-0.1", "NaN", "tenth"] {
        assert!(
            parse(Some("3"), Some(bad)).is_err(),
            "GROUPSAFE_CROSS_SHARD={bad:?} must be a typed error, not 0 % cross-group"
        );
        assert!(
            parse(None, Some(bad)).is_err(),
            "GROUPSAFE_CROSS_SHARD={bad:?} is malformed even without GROUPSAFE_SHARDS"
        );
    }

    // ---- a malformed variable fails the build with a typed error —
    // under an explicit shard setter too.
    for (shards, cross, names) in [
        ("three", None, "three"),
        ("3", Some("10%"), "GROUPSAFE_CROSS_SHARD"),
    ] {
        set("GROUPSAFE_SHARDS", Some(shards));
        set("GROUPSAFE_CROSS_SHARD", cross);
        let implicit = System::builder().build().err();
        let explicit = System::builder().shards(2).build().err();
        set("GROUPSAFE_SHARDS", None);
        set("GROUPSAFE_CROSS_SHARD", None);
        for err in [implicit, explicit] {
            match err {
                Some(BuildError::BadEnvProfile {
                    var: "GROUPSAFE_SHARDS",
                    detail,
                }) => assert!(detail.contains(names), "{detail}"),
                other => {
                    panic!("{shards}/{cross:?}: expected a typed profile error, got {other:?}")
                }
            }
        }
    }

    // ---- the profile reaches the built system...
    set("GROUPSAFE_SHARDS", Some("3"));
    set("GROUPSAFE_CROSS_SHARD", Some("0.1"));
    let cfg = System::builder()
        .servers(3)
        .to_system_config()
        .expect("valid");
    assert_eq!(cfg.shard.groups, 3, "env profile was dropped");
    assert_eq!(cfg.shard.cross_fraction, 0.1);
    let run = System::builder().servers(3).build().expect("valid");
    assert_eq!(run.system().n_groups, 3);

    // ---- ...and an explicit setter still beats it.
    let cfg = System::builder()
        .servers(3)
        .shard(ShardSpec::default())
        .to_system_config()
        .expect("valid");
    let run = System::builder()
        .servers(3)
        .shards(2)
        .build()
        .expect("valid");
    set("GROUPSAFE_SHARDS", None);
    set("GROUPSAFE_CROSS_SHARD", None);
    assert_eq!(
        cfg.shard,
        ShardSpec::default(),
        "explicit wins over the env profile"
    );
    assert_eq!(
        run.system().n_groups,
        2,
        "explicit wins over the env profile"
    );
}
