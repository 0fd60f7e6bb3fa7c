//! Host and build metadata carried by every result, and the part of it
//! that must match before two results are compared.

use std::fs;

use congames_simd::{Dispatch, DISPATCH_ENV};

#[derive(Debug, Clone)]
pub struct Meta {
    pub host: String,
    pub nproc: usize,
    pub avx2: bool,
    pub avx512f: bool,
    pub dispatch: String,
    pub simd_env: String,
    pub rustc: &'static str,
    pub commit: String,
}

impl Meta {
    pub fn collect() -> Meta {
        let host = fs::read_to_string("/proc/sys/kernel/hostname")
            .map(|h| h.trim().to_string())
            .unwrap_or_else(|_| "unknown".into());
        Meta {
            host,
            nproc: nproc(),
            avx2: cpu_has("avx2"),
            avx512f: cpu_has("avx512f"),
            dispatch: format!("{:?}", Dispatch::global()),
            simd_env: std::env::var(DISPATCH_ENV).unwrap_or_else(|_| "unset".into()),
            rustc: env!("PERFBENCH_RUSTC"),
            commit: commit(),
        }
    }

    /// Every field but the commit: results compare only like for like.
    pub fn comparable_key(&self) -> String {
        format!(
            "host={};nproc={};avx2={};avx512f={};dispatch={};simd_env={};rustc={}",
            self.host,
            self.nproc,
            self.avx2,
            self.avx512f,
            self.dispatch,
            self.simd_env,
            self.rustc
        )
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"host\": {}, \"nproc\": {}, \"avx2\": {}, \"avx512f\": {}, \"dispatch\": {}, \
             \"congames_simd\": {}, \"rustc\": {}, \"commit\": {}}}",
            json_str(&self.host),
            self.nproc,
            self.avx2,
            self.avx512f,
            json_str(&self.dispatch),
            json_str(&self.simd_env),
            json_str(self.rustc),
            json_str(&self.commit)
        )
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(target_arch = "x86_64")]
fn cpu_has(feature: &str) -> bool {
    match feature {
        "avx2" => std::arch::is_x86_feature_detected!("avx2"),
        "avx512f" => std::arch::is_x86_feature_detected!("avx512f"),
        _ => false,
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_has(_feature: &str) -> bool {
    false
}

/// The checked-out commit, read from `.git` in the working directory; a
/// checkout without one reports `unknown`.
fn commit() -> String {
    let Ok(head) = fs::read_to_string(".git/HEAD") else { return "unknown".into() };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else { return head.to_string() };
    if let Ok(id) = fs::read_to_string(format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|line| line.strip_suffix(reference).map(|id| id.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
