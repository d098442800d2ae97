//! The structured diagnostics model: rules, severities, and rendering.
//!
//! Every finding the analyzer makes is a [`Diagnostic`] — a rule identifier,
//! a fixed severity, the byte offset of the offending instruction, and a
//! human-readable message. Diagnostics render either as compiler-style text
//! lines or as machine-readable JSON lines (one object per line, written
//! through the workspace's own [`risc1_core::json::Writer`]).

use risc1_core::json::Writer;
use std::fmt;

/// How bad a finding is.
///
/// * `Error` — the program will fault or run off the end of code when the
///   flagged path executes (e.g. a transfer in a delay slot is a hardware
///   fault on RISC I).
/// * `Warning` — legal to execute but almost certainly not what the author
///   meant (reads of never-written registers return the architectural zero;
///   an interrupt restart can re-execute a clobbered jump).
/// * `Info` — a missed optimization or a property worth knowing
///   (dead stores, recursion making window overflow depth-dependent).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Worth knowing; nothing will misbehave.
    Info,
    /// Suspicious: well-defined at runtime but very likely a bug.
    Warning,
    /// Will fault or leave defined code when executed.
    Error,
}

impl Severity {
    /// Lowercase name used in both renderings.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

macro_rules! rules {
    ($(($variant:ident, $name:literal, $sev:ident, $doc:literal)),* $(,)?) => {
        /// Everything the analyzer can complain about.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub enum Rule {
            $(#[doc = $doc] $variant,)*
        }

        impl Rule {
            /// Every rule, in catalogue order.
            pub const ALL: &'static [Rule] = &[$(Rule::$variant),*];

            /// The kebab-case rule identifier used in rendered output.
            pub fn name(self) -> &'static str {
                match self { $(Rule::$variant => $name,)* }
            }

            /// The rule's fixed severity.
            pub fn severity(self) -> Severity {
                match self { $(Rule::$variant => Severity::$sev,)* }
            }

            /// One-line description of what the rule checks.
            pub fn description(self) -> &'static str {
                match self { $(Rule::$variant => $doc,)* }
            }
        }
    };
}

rules! {
    (TransferInDelaySlot, "transfer-in-delay-slot", Error,
     "a transfer of control sits in another transfer's delay slot - a hardware fault on RISC I"),
    (MissingDelaySlot, "missing-delay-slot", Error,
     "a delayed transfer is the last word of code, so its delay slot is missing"),
    (JumpOutOfRange, "jump-out-of-range", Error,
     "a PC-relative transfer targets an address outside the program's code"),
    (UndecodableReachable, "undecodable-reachable", Error,
     "execution can reach a word that does not decode to any instruction"),
    (FallOffEnd, "fall-off-end", Error,
     "execution can run past the end of code without a ret/halt"),
    (DelaySlotClobber, "delay-slot-clobber", Warning,
     "the delay-slot instruction clobbers a register or condition code its transfer consumes"),
    (BranchIntoDelaySlot, "branch-into-delay-slot", Warning,
     "a transfer targets an instruction that is some other transfer's delay slot"),
    (UninitRead, "uninit-read", Warning,
     "a register is read on a path where nothing ever wrote it"),
    (RetWithoutCall, "ret-without-call", Warning,
     "a ret consumes a return address that no reaching call produced"),
    (TrapHandlerMissingReti, "trap-handler-missing-reti", Warning,
     "a function reachable only via the trap vector returns with ret instead of reti, leaving the trap unit armed and interrupts masked"),
    (WindowOverflowDepth, "window-overflow-depth", Warning,
     "the static call chain is deep enough to guarantee register-window overflow traps"),
    (UnreachableCode, "unreachable-code", Warning,
     "a decodable instruction can never execute"),
    (SpecIllegalEncoding, "spec-illegal-encoding", Warning,
     "an instruction's operand shape is one the ISA spec table rejects - it decodes, but the assembler could never have produced it"),
    (DeadStore, "dead-store", Info,
     "a register is written and then never read before being overwritten"),
    (DeadSccSet, "dead-scc-set", Info,
     "an instruction sets the condition codes but nothing reads them before the next setter"),
    (RecursiveCallGraph, "recursive-call-graph", Info,
     "the call graph has a cycle, so window overflow depends on runtime depth"),
}

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Byte offset of the offending instruction within the code image.
    /// (Kept first so the derived ordering sorts findings by address.)
    pub pc: u32,
    /// Which rule fired.
    pub rule: Rule,
    /// The rule's severity, denormalized for convenience.
    pub severity: Severity,
    /// Human-readable explanation, including the decoded instruction and
    /// the enclosing symbol when known.
    pub message: String,
}

impl Diagnostic {
    /// A diagnostic for `rule` at byte offset `pc`.
    pub fn new(rule: Rule, pc: u32, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            pc,
            rule,
            severity: rule.severity(),
            message: message.into(),
        }
    }

    /// Renders as one JSON object (a single line, keys fixed):
    /// `{"rule":"…","severity":"…","pc":64,"message":"…"}`.
    pub fn to_json(&self) -> String {
        let mut w = Writer::new();
        w.obj_open();
        w.key("rule");
        w.str(self.rule.name());
        w.key("severity");
        w.str(self.severity.name());
        w.key("pc");
        w.num(i128::from(self.pc));
        w.key("message");
        w.str(&self.message);
        w.obj_close();
        w.finish()
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] at +0x{:04x}: {}",
            self.severity,
            self.rule.name(),
            self.pc,
            self.message
        )
    }
}

/// Renders a batch of diagnostics as text lines followed by a one-line
/// summary, the format `risc1 lint` prints.
pub fn render_text(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diags {
        out.push_str(&d.to_string());
        out.push('\n');
    }
    let count = |s: Severity| diags.iter().filter(|d| d.severity == s).count();
    out.push_str(&format!(
        "{} error(s), {} warning(s), {} info\n",
        count(Severity::Error),
        count(Severity::Warning),
        count(Severity::Info)
    ));
    out
}

/// Renders a batch as JSON lines (one object per diagnostic, no summary).
pub fn render_json(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diags {
        out.push_str(&d.to_json());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_ordering_puts_errors_on_top() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
    }

    #[test]
    fn rule_names_are_unique_kebab_case() {
        let mut seen = std::collections::HashSet::new();
        for r in Rule::ALL {
            let n = r.name();
            assert!(n.chars().all(|c| c.is_ascii_lowercase() || c == '-'), "{n}");
            assert!(seen.insert(n), "duplicate rule name {n}");
        }
    }

    #[test]
    fn json_escapes_quotes_and_control_chars() {
        let d = Diagnostic::new(Rule::UninitRead, 8, "say \"hi\"\n\u{1}");
        let j = d.to_json();
        assert_eq!(
            j,
            "{\"rule\":\"uninit-read\",\"severity\":\"warning\",\"pc\":8,\
             \"message\":\"say \\\"hi\\\"\\n\\u0001\"}"
        );
    }

    #[test]
    fn text_render_includes_summary() {
        let d = vec![
            Diagnostic::new(Rule::FallOffEnd, 4, "oops"),
            Diagnostic::new(Rule::DeadStore, 0, "meh"),
        ];
        let t = render_text(&d);
        assert!(t.contains("error[fall-off-end] at +0x0004: oops"));
        assert!(t.ends_with("1 error(s), 0 warning(s), 1 info\n"));
    }
}
