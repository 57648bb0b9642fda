// lint-place: fuzz/
#pragma once
