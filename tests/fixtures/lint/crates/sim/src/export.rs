//! Writes under the golden directory outside `figures bless`: the
//! golden-write rule fires on the path literal in
//! `dump_debug_golden` — whatever it then does with it via `save_bytes`.
//! `sim` is not a registered golden writer, so this is a finding.

pub fn dump_debug_golden(report: &str) -> std::io::Result<()> {
    save_bytes("tests/golden/fig_debug.json", report.as_bytes())
}

fn save_bytes(path: &str, bytes: &[u8]) -> std::io::Result<()> {
    std::fs::write(path, bytes)
}
