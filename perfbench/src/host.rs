//! Host and compute-stack fingerprint, and the process's peak memory.

use medsec_ec::{server_strategy_name, Toy17, B163, K163, K233, K283};

/// Whether the CPU reports `feature` (always false off x86-64).
fn cpu_flag(feature: &str) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        match feature {
            "pclmulqdq" => std::arch::is_x86_feature_detected!("pclmulqdq"),
            "avx512f" => std::arch::is_x86_feature_detected!("avx512f"),
            "vpclmulqdq" => std::arch::is_x86_feature_detected!("vpclmulqdq"),
            _ => false,
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = feature;
        false
    }
}

/// The fingerprint as a JSON object: core count, the CPU flags the
/// field backends select on, the backend actually serving, the
/// variable-base strategy per curve, and whether the backend was forced
/// through the environment.
pub fn fingerprint_json() -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let env = std::env::var(medsec_gf2m::BACKEND_ENV).ok();
    let flags = ["pclmulqdq", "avx512f", "vpclmulqdq"]
        .iter()
        .map(|f| format!("\"{f}\":{}", cpu_flag(f)))
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"cores\":{cores},\"cpu_flags\":{{{flags}}},\"backend\":\"{}\",\
         \"varbase\":{{\"Toy17\":\"{}\",\"B163\":\"{}\",\"K163\":\"{}\",\"K233\":\"{}\",\"K283\":\"{}\"}},\
         \"backend_env\":{}}}",
        medsec_gf2m::backend::active_backend_name(),
        server_strategy_name::<Toy17>(),
        server_strategy_name::<B163>(),
        server_strategy_name::<K163>(),
        server_strategy_name::<K233>(),
        server_strategy_name::<K283>(),
        env.map_or("null".to_string(), |v| format!("\"{}\"", v.escape_default())),
    )
}

/// The process's high-water resident set, in MiB (`VmHWM` of
/// `/proc/self/status`; 0 where the kernel does not report it).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
