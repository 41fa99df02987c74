//! Protocol tuning knobs.

/// How configuration verification traffic is generated (paper §6 poses
/// the deterministic variant as future work; we implement both).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ProbeMode {
    /// The paper's §3.2.1 design: the supervisor pushes one round-robin
    /// configuration per timeout, and subscribers probe randomly with
    /// probability `1/(2^k·k²)` (Theorem 5).
    #[default]
    Randomized,
    /// The §6 future-work design, verbatim: a supervisor-issued **token**
    /// walks the ring; each holder requests its configuration
    /// deterministically and passes the token right; the maximum returns
    /// it. The supervisor pushes nothing autonomously (no round-robin, no
    /// randomized probes), regenerating the token when it fails to
    /// return. Every node is verified exactly once per circulation — a
    /// deterministic staleness bound with ~zero variance.
    ///
    /// **Reproduces the paper's own caveat**: "the token-passing scheme
    /// has to be able to deal with multiple connected components" (§6) —
    /// pure token mode provably stalls on partitioned initial states
    /// whose component minimum carries label `"0"` (experiment E15).
    Token,
    /// Token verification plus the randomized action-(ii) fallback: the
    /// deterministic staleness bound of [`ProbeMode::Token`] *and* full
    /// Theorem-8 convergence (components absorb via the fallback probes).
    TokenHybrid,
}

/// Configuration shared by all subscribers of a topic.
///
/// Defaults follow the paper; experiments override individual knobs (e.g.
/// disabling flooding to measure pure anti-entropy convergence, E8).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProtocolConfig {
    /// Key length `m` for publication keys (paper §4.2).
    pub key_bits: usize,
    /// Run the periodic Patricia-trie anti-entropy probe (`PublishTimeout`,
    /// Algorithm 5).
    pub anti_entropy: bool,
    /// Flood fresh publications along all edges (`PublishNew`, §4.3).
    pub flooding: bool,
    /// Enable the probabilistic configuration probes of §3.2.1 (ii)/(iv).
    /// Disabled only by closure experiments that must count zero probes.
    pub probes: bool,
    /// Verification-traffic strategy (randomized probes vs. §6 token).
    pub probe_mode: ProbeMode,
    /// Enable shortcut maintenance (§3.2.2). Disabling yields a plain
    /// self-stabilizing ring — the ablation baseline for E9/E10.
    pub shortcuts: bool,
    /// Enable `CheckShortcut` slot verification — our documented
    /// extension (DESIGN.md §7.4, §7.8): one random slot per timeout,
    /// and every reference that leaves a slot instead of forwarding it
    /// into the list. Disabling reproduces the paper's verbatim
    /// protocol, in which stale slot bindings can circulate between
    /// introducers indefinitely; experiment E14 measures the difference.
    pub verify_shortcuts: bool,
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        ProtocolConfig {
            key_bits: 64,
            anti_entropy: true,
            flooding: true,
            probes: true,
            probe_mode: ProbeMode::Randomized,
            shortcuts: true,
            verify_shortcuts: true,
        }
    }
}

impl ProtocolConfig {
    /// Configuration with publication machinery disabled — used by
    /// topology-only experiments so message counters are not polluted.
    pub fn topology_only() -> Self {
        ProtocolConfig {
            anti_entropy: false,
            flooding: false,
            ..Self::default()
        }
    }

    /// Whether supervisors run the §6 token machinery: every probe mode
    /// but the randomized one issues tokens.
    pub fn token_enabled(&self) -> bool {
        self.probe_mode != ProbeMode::Randomized
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let c = ProtocolConfig::default();
        assert!(c.anti_entropy && c.flooding && c.probes && c.shortcuts);
        assert_eq!(c.key_bits, 64);
        let t = ProtocolConfig::topology_only();
        assert!(!t.anti_entropy && !t.flooding);
        assert!(t.probes && t.shortcuts);
    }
}
