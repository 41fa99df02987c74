//! `docs/paper_map.md` anchors the paper's artefacts to code by file
//! path + symbol name. Symbols move within files freely; files get
//! renamed and deleted, and a map pointing at a file that no longer
//! exists is worse than none — so every `crates/…/*.rs` path the map
//! names must exist.

use std::path::Path;

#[test]
fn every_source_path_the_paper_map_names_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let map = std::fs::read_to_string(root.join("docs/paper_map.md")).expect("docs/paper_map.md");
    let is_path_char = |c: char| c.is_ascii_alphanumeric() || "_-/.".contains(c);
    let mut named = 0;
    for (at, _) in map.match_indices("crates/") {
        let path: &str = map[at..]
            .split(|c| !is_path_char(c))
            .next()
            .expect("nonempty");
        if path.ends_with(".rs") {
            named += 1;
            assert!(
                root.join(path).is_file(),
                "docs/paper_map.md names missing file {path}"
            );
        }
    }
    assert!(
        named > 50,
        "the map names dozens of source files, found {named}"
    );
}
