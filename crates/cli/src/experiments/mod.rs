//! One module per reproduced table/figure. See DESIGN.md's per-experiment
//! index for the mapping to the paper.

pub mod ablation;
pub mod common;
pub mod ext2;
pub mod ext3;
pub mod ext4;
pub mod ext_merge;
pub mod fig01;
pub mod fig02;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod metrics_dump;
pub mod table1;
pub mod table2;
