//! Workload generation: materializes an [`AppProfile`] as MiniC sources plus
//! a matching version-control history with ground-truth labels.
//!
//! Timeline of a generated application:
//!
//! ```text
//! 2015-06  file owners import the initial tree (with §3.1 prelim shapes)
//! 2015–18  owner churn commits; prelim bug introductions (2018-09)
//! 2019-01  <snapshot_2019>  — the §3.1 "first commit of 2019"
//! 2019–20  prelim removals (bug-fix / cleanup commits)
//! 2021-01  <snapshot_2021>
//! 2015–22  bug/FP/pattern-introducing commits at ages drawn from Fig. 7c
//! 2022-07  NOW — the analysed head
//! ```

use std::collections::BTreeMap;

use vc_obs::SplitMix64;
use vc_vcs::{
    AuthorId,
    CommitId,
    FileWrite,
    Repository, //
};

use crate::{
    codegen::{
        self,
        FuncEdit,
        Item,
        Role,
        When, //
    },
    profile::{
        AppProfile,
        AGE_BUCKETS,
        COMPONENTS,
        DAY,
        NOW,
        SEVERITIES, //
    },
    truth::{
        BugCategory,
        GroundTruth,
        IntentionalPattern,
        PlantKind,
        Planted,
        Severity, //
    },
};

/// 2015-06-01, when the synthetic projects are first imported.
const T_IMPORT: i64 = 1_433_116_800;
/// 2018-09-01, when prelim bugs are introduced.
const T_PRELIM_INTRO: i64 = 1_535_760_000;
/// 2019-01-01, the first §3.1 snapshot.
pub const T_2019: i64 = 1_546_300_800;
/// 2019-03-01, earliest prelim removal.
const T_REMOVAL_LO: i64 = 1_551_398_400;
/// 2020-11-01, latest prelim removal.
const T_REMOVAL_HI: i64 = 1_604_188_800;
/// 2021-01-01, the second §3.1 snapshot.
pub const T_2021: i64 = 1_609_459_200;

/// A fully generated application.
#[derive(Clone, Debug)]
pub struct GeneratedApp {
    /// The profile it was generated from.
    pub profile: AppProfile,
    /// Final source files (exactly matching the repository head).
    pub sources: Vec<(String, String)>,
    /// The version-control history.
    pub repo: Repository,
    /// Ground-truth labels.
    pub truth: GroundTruth,
    /// Active preprocessor configuration (all `FEATURE_*` guards disabled).
    pub defines: Vec<String>,
    /// The commit corresponding to the 2019-01-01 tree.
    pub snapshot_2019: Option<CommitId>,
    /// The commit corresponding to the 2021-01-01 tree.
    pub snapshot_2021: Option<CommitId>,
    /// When the project last ran Coverity and addressed its warnings
    /// (§8.4.4); `None` for projects that never did (Linux).
    pub coverity_last_run: Option<i64>,
}

impl GeneratedApp {
    /// Total source lines (for Table 7's LOC column).
    pub fn loc(&self) -> usize {
        self.sources.iter().map(|(_, s)| s.lines().count()).sum()
    }

    /// Sources as `(&str, &str)` pairs for `Program::build`.
    pub fn source_refs(&self) -> Vec<(&str, &str)> {
        self.sources
            .iter()
            .map(|(p, c)| (p.as_str(), c.as_str()))
            .collect()
    }
}

struct Slot {
    name: String,
    text: Option<String>,
    edits: Vec<FuncEdit>,
}

struct FilePlan {
    path: String,
    protos: Vec<String>,
    slots: Vec<Slot>,
    owner: AuthorId,
    t_init: i64,
    churns: Vec<(i64, AuthorId)>,
}

/// Generates an application from a profile. Deterministic in the profile's
/// seed.
pub fn generate(profile: &AppProfile) -> GeneratedApp {
    let mut rng = SplitMix64::new(profile.seed);
    let tag: String = profile
        .name
        .chars()
        .filter(|c| c.is_ascii_alphanumeric())
        .collect();

    // ----- Author pools --------------------------------------------------
    let mut repo = Repository::new();
    let owners: Vec<AuthorId> = (0..25)
        .map(|i| repo.add_author(format!("maintainer_{tag}_{i}")))
        .collect();
    let newcomers: Vec<AuthorId> = (0..20)
        .map(|i| repo.add_author(format!("newcomer_{tag}_{i}")))
        .collect();
    let contributors: Vec<AuthorId> = (0..10)
        .map(|i| repo.add_author(format!("contributor_{tag}_{i}")))
        .collect();
    let drifters: Vec<AuthorId> = (0..15)
        .map(|i| repo.add_author(format!("drifter_{tag}_{i}")))
        .collect();

    // ----- Build the item list -------------------------------------------
    let mut items: Vec<Item> = Vec::new();
    let mut counter = 0usize;
    let next_id = |counter: &mut usize| -> String {
        *counter += 1;
        format!("{tag}_{:05}", *counter)
    };

    let pick_weighted = |rng: &mut SplitMix64, table: &[(&str, f64)]| -> String {
        let x = rng.f64();
        let mut acc = 0.0;
        for (name, w) in table {
            acc += w;
            if x < acc {
                return (*name).to_string();
            }
        }
        table.last().expect("non-empty table").0.to_string()
    };
    let pick_age = |rng: &mut SplitMix64| -> i64 {
        let x = rng.f64();
        let mut acc = 0.0;
        for (lo, hi, w) in AGE_BUCKETS {
            acc += w;
            if x < acc {
                return rng.range_i64(*lo, *hi);
            }
        }
        AGE_BUCKETS[0].0
    };
    let pick_severity = |rng: &mut SplitMix64| -> Severity {
        match pick_weighted(rng, SEVERITIES).as_str() {
            "high" => Severity::High,
            "low" => Severity::Low,
            _ => Severity::Medium,
        }
    };

    // Checked-function groups back the Smatch/Coverity majority heuristics:
    // 12 checking consumers per group, benign + buggy ignorers capped at 11.
    let semantic_count = ((profile.confirmed_bugs as f64) * 0.13).round() as usize;
    let icb = profile
        .ignored_checked_bugs
        .min(profile.confirmed_bugs.saturating_sub(semantic_count));
    let total_ignorers = profile.smatch_benign + icb;
    let checked_groups = total_ignorers.div_ceil(10).max(1);
    {
        let mut benign_left = profile.smatch_benign;
        for g in 0..checked_groups {
            let share = benign_left / (checked_groups - g);
            let id = next_id(&mut counter);
            items.push(codegen::checked_group(g, &id, 12, share));
            benign_left -= share;
        }
    }

    // Confirmed bugs: ~13% semantic (Table 3), the rest missing-check.
    for i in 0..profile.confirmed_bugs {
        let id = next_id(&mut counter);
        let age_days = pick_age(&mut rng);
        let when = NOW - age_days * DAY;
        let semantic = i < semantic_count;
        let kind = PlantKind::ConfirmedBug {
            category: if semantic {
                BugCategory::Semantic
            } else {
                BugCategory::MissingCheck
            },
            component: pick_weighted(&mut rng, COMPONENTS),
            severity: pick_severity(&mut rng),
            introduced: when, // Clamped later against the file import time.
        };
        let item = if semantic {
            if i % 2 == 0 {
                codegen::bug_overwritten(&id, when, kind)
            } else {
                codegen::bug_param(&id, i, when, kind)
            }
        } else if i - semantic_count < icb {
            codegen::bug_ignored_checked(&id, (i - semantic_count) % checked_groups, when, kind)
        } else if i % 2 == 0 {
            codegen::bug_retval_overwrite(&id, when, kind)
        } else {
            codegen::bug_ignored_retval(&id, when, kind)
        };
        let mut item = item;
        // A minority of real bugs come from moderately-familiar
        // contributors, so the familiarity factors matter individually
        // (Table 6's w/o-AC / w/o-DL / w/o-FA deltas).
        if i % 10 == 9 {
            for func in &mut item.funcs {
                if let Some(e) = &mut func.edit {
                    if e.role == Role::Newcomer {
                        e.role = Role::Contributor;
                    }
                }
            }
        }
        items.push(item);
    }

    // False positives.
    for i in 0..(profile.fp_minor + profile.fp_debug) {
        let id = next_id(&mut counter);
        let when = NOW - rng.range_i64(200, 900) * DAY;
        let debug_code = i >= profile.fp_minor;
        let mut item = codegen::fp_retval(&id, when, debug_code);
        // One false positive per application comes from a newcomer, putting
        // it near the top of the familiarity ranking (the paper's top-10
        // precision is 97.5%, not 100%).
        if i == 0 {
            for func in &mut item.funcs {
                if let Some(e) = &mut func.edit {
                    if e.role == Role::Contributor {
                        e.role = Role::Newcomer;
                    }
                }
            }
        }
        items.push(item);
    }

    // Intentional patterns.
    for i in 0..profile.prune_config {
        let id = next_id(&mut counter);
        items.push(codegen::intentional_config(
            &id,
            PlantKind::Intentional {
                pattern: IntentionalPattern::ConfigDependency,
                actually_bug: i < profile.prune_fn_config,
            },
        ));
    }
    for _ in 0..profile.prune_cursor {
        let id = next_id(&mut counter);
        let when = NOW - rng.range_i64(100, 1200) * DAY;
        items.push(codegen::intentional_cursor(
            &id,
            when,
            PlantKind::Intentional {
                pattern: IntentionalPattern::Cursor,
                actually_bug: false,
            },
        ));
    }
    for _ in 0..profile.prune_hints {
        let id = next_id(&mut counter);
        items.push(codegen::intentional_hint(
            &id,
            PlantKind::Intentional {
                pattern: IntentionalPattern::UnusedHint,
                actually_bug: false,
            },
        ));
    }
    // Peer groups of 11–18 sites.
    let mut peer_budget = profile.prune_peer;
    let mut group = 0usize;
    let mut peer_fn_left = profile.prune_fn_peer;
    while peer_budget > 0 {
        let mut k = rng.range_inclusive_usize(11, 18).min(peer_budget);
        // Never leave a remainder below the peer threshold.
        if peer_budget > k && peer_budget - k < 11 {
            k = peer_budget;
        }
        if peer_budget <= 18 {
            k = peer_budget;
        }
        for j in 0..k {
            let id = next_id(&mut counter);
            let actually_bug = peer_fn_left > 0;
            if actually_bug {
                peer_fn_left -= 1;
            }
            items.push(codegen::intentional_peer_site(
                group,
                j,
                &id,
                PlantKind::Intentional {
                    pattern: IntentionalPattern::PeerDefinition,
                    actually_bug,
                },
            ));
        }
        peer_budget -= k;
        group += 1;
    }
    let peer_groups = group.max(1);

    // Non-cross-scope unused definitions.
    for i in 0..profile.non_cross {
        let id = next_id(&mut counter);
        let role = match i % 10 {
            0..=4 => Role::Drifter,
            5..=7 => Role::Contributor,
            _ => Role::Owner,
        };
        let when = NOW - rng.range_i64(50, 1500) * DAY;
        items.push(codegen::non_cross(&id, role, when, i % 5 != 0));
    }

    // Same-author unused call results that are real bugs (§8.4.5).
    for _ in 0..profile.non_cross_real {
        let id = next_id(&mut counter);
        let when = NOW - rng.range_i64(30, 400) * DAY;
        items.push(codegen::non_cross_real(&id, Role::Contributor, when));
    }

    // §3.1 preliminary history.
    for i in 0..profile.prelim_total {
        let id = next_id(&mut counter);
        let bugfix = i < profile.prelim_bugfix;
        let cross = i < profile.prelim_cross;
        let peer_missed = i < profile.prelim_peer_missed;
        let intro = T_PRELIM_INTRO + rng.range_i64(0, 60) * DAY;
        let removal = rng.range_i64(T_REMOVAL_LO, T_REMOVAL_HI);
        items.push(codegen::prelim(
            &id,
            intro,
            removal,
            bugfix,
            cross,
            peer_missed,
            (i + rng.range_usize(0, 7)) % peer_groups,
        ));
    }

    // Filler.
    for i in 0..profile.filler_funcs {
        let id = next_id(&mut counter);
        items.push(codegen::filler(&id, i));
    }

    // Shuffle so detection order interleaves kinds (the "w/o Familiarity"
    // ablation samples the first 20 in detection order).
    for i in (1..items.len()).rev() {
        let j = rng.range_inclusive_usize(0, i);
        items.swap(i, j);
    }

    // ----- Chunk items into files ------------------------------------------
    let mut files: Vec<FilePlan> = Vec::new();
    let mut truth = GroundTruth {
        planted: Vec::new(),
        now: NOW,
    };
    let mut current: Option<FilePlan> = None;
    let mut file_no = 0usize;
    for item in items {
        let need = item.funcs.len();
        let full = current
            .as_ref()
            .map(|f| !f.slots.is_empty() && f.slots.len() + need > profile.funcs_per_file)
            .unwrap_or(true);
        if full {
            if let Some(f) = current.take() {
                files.push(f);
            }
            let owner = owners[file_no % owners.len()];
            let t_init = T_IMPORT + rng.range_i64(0, 60) * DAY;
            current = Some(FilePlan {
                path: format!("src/{tag}_mod_{file_no:04}.c"),
                protos: Vec::new(),
                slots: Vec::new(),
                owner,
                t_init,
                churns: Vec::new(),
            });
            file_no += 1;
        }
        let f = current.as_mut().expect("file plan exists");
        for p in &item.protos {
            if !f.protos.contains(p) {
                f.protos.push(p.clone());
            }
        }
        let base_slot = f.slots.len();
        for (fi, func) in item.funcs.into_iter().enumerate() {
            // Re-edits of an existing slot (prelim removals) attach to it.
            if let Some(existing) = f.slots.iter_mut().find(|s| s.name == func.name) {
                existing.edits.extend(func.edit);
                continue;
            }
            let _ = fi;
            f.slots.push(Slot {
                name: func.name,
                text: func.initial,
                edits: func.edit.into_iter().collect(),
            });
        }
        for (idx, kind) in item.plants {
            truth.planted.push(Planted {
                func: f.slots[(base_slot + idx).min(f.slots.len() - 1)]
                    .name
                    .clone(),
                file: f.path.clone(),
                kind,
            });
        }
    }
    if let Some(f) = current.take() {
        files.push(f);
    }

    // Resolve edit authors, then plan churn commits: owners churn their
    // files throughout (raising every outsider's AC), while contributors and
    // half the drifters make same-author follow-up commits (raising their
    // own DL — the familiarity signal the DOK ranking keys on).
    let pick_role_author = |rng: &mut SplitMix64, role: Role, owner: AuthorId| -> AuthorId {
        match role {
            Role::Owner => owner,
            Role::Newcomer => *rng.choice(&newcomers),
            Role::Contributor => *rng.choice(&contributors),
            Role::Drifter => *rng.choice(&drifters),
        }
    };
    struct ResolvedEdit {
        slot: usize,
        time: i64,
        author: AuthorId,
        message: String,
        text: String,
    }
    let mut file_edits: Vec<Vec<ResolvedEdit>> = Vec::with_capacity(files.len());
    for f in &mut files {
        let mut resolved = Vec::new();
        for (si, slot) in f.slots.iter().enumerate() {
            for e in &slot.edits {
                let When::At(t) = e.when;
                let time = t.max(f.t_init + 10 * DAY);
                let author = pick_role_author(&mut rng, e.role, f.owner);
                // Same-author follow-up churns build the editor's DL.
                let follow_ups = match e.role {
                    Role::Contributor => rng.range_inclusive_usize(3, 5),
                    Role::Drifter => rng.range_inclusive_usize(0, 1),
                    Role::Owner | Role::Newcomer => 0,
                };
                for k in 0..follow_ups {
                    let tt = (time + (k as i64 + 1) * 15 * DAY).min(NOW - DAY);
                    f.churns.push((tt, author));
                }
                resolved.push(ResolvedEdit {
                    slot: si,
                    time,
                    author,
                    message: e.message.clone(),
                    text: e.text.clone(),
                });
            }
        }
        let n = rng.range_usize(6, 12);
        for _ in 0..n {
            let t = rng.range_i64(f.t_init + 10 * DAY, NOW - 5 * DAY);
            f.churns.push((t, f.owner));
        }
        file_edits.push(resolved);
    }

    // ----- Plan and apply commits ------------------------------------------
    struct Planned {
        time: i64,
        author: AuthorId,
        message: String,
        path: String,
        content: String,
    }
    let mut planned: Vec<Planned> = Vec::new();

    for (f, resolved) in files.iter().zip(&file_edits) {
        // Events: (time, kind). Kind: edit on slot s -> text / churn.
        enum Ev {
            Edit {
                slot: usize,
                text: String,
                author: AuthorId,
                message: String,
            },
            Churn {
                author: AuthorId,
            },
        }
        let mut events: Vec<(i64, usize, Ev)> = Vec::new();
        let mut seq = 0usize;
        for e in resolved {
            events.push((
                e.time,
                seq,
                Ev::Edit {
                    slot: e.slot,
                    text: e.text.clone(),
                    author: e.author,
                    message: e.message.clone(),
                },
            ));
            seq += 1;
        }
        for (t, a) in &f.churns {
            events.push((*t, seq, Ev::Churn { author: *a }));
            seq += 1;
        }
        events.sort_by_key(|(t, s, _)| (*t, *s));

        // Sequential content computation.
        let mut texts: Vec<Option<String>> = f.slots.iter().map(|s| s.text.clone()).collect();
        let mut churn_lines = 0usize;
        let render = |texts: &[Option<String>], churn_lines: usize| -> String {
            let mut out = String::new();
            for p in &f.protos {
                out.push_str(p);
                out.push('\n');
            }
            for t in texts.iter().flatten() {
                out.push_str(t);
            }
            for k in 0..churn_lines {
                out.push_str(&format!("// maintenance churn {k}\n"));
            }
            out
        };
        planned.push(Planned {
            time: f.t_init,
            author: f.owner,
            message: format!("import {}", f.path),
            path: f.path.clone(),
            content: render(&texts, 0),
        });
        for (t, _, ev) in events {
            match ev {
                Ev::Edit {
                    slot,
                    text,
                    author,
                    message,
                } => {
                    texts[slot] = Some(text);
                    planned.push(Planned {
                        time: t,
                        author,
                        message,
                        path: f.path.clone(),
                        content: render(&texts, churn_lines),
                    });
                }
                Ev::Churn { author } => {
                    churn_lines += 1;
                    planned.push(Planned {
                        time: t,
                        author,
                        message: "routine maintenance".to_string(),
                        path: f.path.clone(),
                        content: render(&texts, churn_lines),
                    });
                }
            }
        }
    }

    planned.sort_by(|a, b| (a.time, &a.path).cmp(&(b.time, &b.path)));
    for p in planned {
        repo.commit(
            p.author,
            p.time,
            p.message,
            vec![FileWrite {
                path: p.path,
                content: p.content,
            }],
        );
    }

    // ----- Final sources and snapshots --------------------------------------
    let mut sources: BTreeMap<String, String> = BTreeMap::new();
    let paths: Vec<String> = repo.paths().iter().map(|p| p.to_string()).collect();
    for path in paths {
        let mut content = repo
            .file_content(&path)
            .expect("tracked file has content")
            .to_string();
        if !content.ends_with('\n') {
            content.push('\n');
        }
        sources.insert(path, content);
    }
    // Clamp recorded introduction times to the actual edit floor.
    for p in &mut truth.planted {
        if let PlantKind::ConfirmedBug { introduced, .. } = &mut p.kind {
            *introduced = (*introduced).max(T_IMPORT + 10 * DAY);
        }
    }

    GeneratedApp {
        profile: profile.clone(),
        sources: sources.into_iter().collect(),
        repo: repo.clone(),
        truth,
        defines: Vec::new(),
        snapshot_2019: repo.commit_at_time(T_2019),
        snapshot_2021: repo.commit_at_time(T_2021),
        coverity_last_run: profile.coverity_history.then_some(NOW - 500 * DAY),
    }
}
