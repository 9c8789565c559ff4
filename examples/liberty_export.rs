//! Characterize a small library and emit a Liberty-flavoured `.lib` file.
//!
//! This is the "what do I actually ship to the STA tool" end of the flow: the standard
//! library is characterized at the technology's nominal supply on a 4×4 slew/load grid and
//! written to `slic_target14_example.lib` in the system temporary directory
//! (`std::env::temp_dir()`).
//!
//! Run with `cargo run --release --example liberty_export`.

use slic::liberty::{export_library, ExportGrid};
use slic::prelude::*;
use std::fs;

fn main() {
    let tech = TechnologyNode::target_14nm();
    let engine = CharacterizationEngine::with_config(tech.clone(), TransientConfig::fast())
        .expect("valid transient configuration");
    let library = Library::new(
        "shipping-subset",
        [
            Cell::new(CellKind::Inv, DriveStrength::X1),
            Cell::new(CellKind::Inv, DriveStrength::X2),
            Cell::new(CellKind::Nand2, DriveStrength::X1),
            Cell::new(CellKind::Nor2, DriveStrength::X1),
            Cell::new(CellKind::Aoi21, DriveStrength::X1),
        ],
    );

    println!(
        "characterizing {} cells of {} at Vdd = {} ...",
        library.len(),
        tech.name(),
        tech.vdd_nominal()
    );
    let text = export_library(&engine, &library, ExportGrid::default()).expect("non-empty library");
    println!(
        "done: {} simulations, {} lines of Liberty output",
        engine.simulation_count(),
        text.lines().count()
    );

    let out_path = std::env::temp_dir().join("slic_target14_example.lib");
    match fs::write(&out_path, &text) {
        Ok(()) => println!("written to {}", out_path.display()),
        Err(err) => println!(
            "could not write {} ({err}); printing instead",
            out_path.display()
        ),
    }

    // Show the head of the file so the run is useful even without opening the output.
    println!("\n--- first 40 lines ---");
    for line in text.lines().take(40) {
        println!("{line}");
    }
}
