//! Never linted: the walk skips `tests/` directories (whole-directory test
//! context), so this seeded violation must not show up.

use std::collections::HashMap;
