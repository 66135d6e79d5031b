//! The `--bench-json` writer shared by the serving examples that emit
//! one (`mod common;`). Cargo builds only `examples/*.rs` as examples,
//! so this file is never an example of its own.

/// The `PATH` after `--bench-json`, if the flag was passed.
///
/// # Panics
///
/// Panics if the flag is the last argument.
pub fn bench_json_path(args: &[String]) -> Option<String> {
    args.iter()
        .position(|a| a == "--bench-json")
        .map(|i| args.get(i + 1).expect("--bench-json needs a PATH").clone())
}

/// Writes `{"benchmark": …, <fields>…, "results": [<rows>]}` to `path`.
/// Field values and rows are JSON already; the layout (one field per
/// line, rows joined by `,\n`) is what `benches/canonical/` pins.
pub fn write_bench_json(path: &str, benchmark: &str, fields: &[(&str, String)], rows: &[String]) {
    let mut doc = format!("{{\n  \"benchmark\": {benchmark:?},\n");
    for (key, value) in fields {
        doc += &format!("  {key:?}: {value},\n");
    }
    doc += &format!("  \"results\": [\n{}\n  ]\n}}\n", rows.join(",\n"));
    std::fs::write(path, doc).expect("write bench json");
    println!("\nwrote {} result rows to {path}", rows.len());
}
