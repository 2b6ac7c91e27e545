//! The host block printed with every run.

use ndss::json::{Json, ObjectBuilder};

pub fn block(seed: u64) -> Json {
    ObjectBuilder::new()
        .field("cores", Json::UInt(crate::workloads::cores() as u64))
        .field("cpu", Json::Str(cpu_model()))
        .field(
            "unpack_kernel",
            Json::Str(format!("{:?}", bitpack::active_kernel())),
        )
        .field("git_sha", Json::Str(git_sha()))
        .field("seed", Json::UInt(seed))
        .build()
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out commit, read from `.git` (the benchmark may run from a
/// plain copy of the tree, where it is "unknown").
fn git_sha() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(reference) => read(&format!(".git/{reference}"))
                .or_else(|| {
                    read(".git/packed-refs")?
                        .lines()
                        .find(|l| l.ends_with(reference))
                        .and_then(|l| l.split(' ').next().map(str::to_string))
                })
                .unwrap_or_else(|| "unknown".into()),
            None => head,
        },
        None => "unknown".into(),
    }
}
