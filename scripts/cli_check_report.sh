#!/usr/bin/env bash
# cli_check_report.sh <pilfill> <dir>: `pilfill check` prints a pinned report.
#
# A 32 um layout with one m3 wire, one metal blockage and eight FILL
# squares covers a buffer violation, an overlap, spacing across the
# x = 8 um cell boundary (the left neighbour, listed last, is reported
# first), a square inside the blockage and a non-square. The check must
# exit 3 and print exactly the report below. Exits 1 on any difference.
set -euo pipefail
pilfill=$1
cd "$2"
cat > check_report.pld <<'EOF'
PLD 1
DIE 0 0 32 32
LAYER m3 H WIDTH 0.5 SHEETRES 0.08 THICKNESS 0.5 EPSR 3.9
BLOCKAGE m3 20 20 28 28 METAL
NET w0 SOURCE 2 16 RDRV 100
  SEG m3 2 16 30 16 0.5
  SINK 30 16 CLOAD 1
END
NET FILL0 SOURCE 10 16.75 RDRV 1
  SEG m3 10 16.75 10.5 16.75 0.5
END
NET FILL1 SOURCE 4 4.25 RDRV 1
  SEG m3 4 4.25 4.5 4.25 0.5
END
NET FILL2 SOURCE 4.25 4.25 RDRV 1
  SEG m3 4.25 4.25 4.75 4.25 0.5
END
NET FILL3 SOURCE 7.75 10.25 RDRV 1
  SEG m3 7.75 10.25 8.25 10.25 0.5
END
NET FILL4 SOURCE 8.5 10.25 RDRV 1
  SEG m3 8.5 10.25 9 10.25 0.5
END
NET FILL5 SOURCE 7 10.25 RDRV 1
  SEG m3 7 10.25 7.5 10.25 0.5
END
NET FILL6 SOURCE 24 24.25 RDRV 1
  SEG m3 24 24.25 24.5 24.25 0.5
END
NET FILL7 SOURCE 14 4.25 RDRV 1
  SEG m3 14 4.25 14.8 4.25 0.5
END
EOF

cat > check_report.expected <<'EOF'
checked 8 fill features: VIOLATIONS FOUND
  buffer-to-wire at [10,16.5 .. 10.5,17] vs [2,15.75 .. 30,16.25] (measure 0.25)
  fill-spacing at [4,4 .. 4.5,4.5] vs [4.25,4 .. 4.75,4.5] (measure 0)
  fill-spacing at [7.75,10 .. 8.25,10.5] vs [7,10 .. 7.5,10.5] (measure 0.25)
  fill-spacing at [7.75,10 .. 8.25,10.5] vs [8.5,10 .. 9,10.5] (measure 0.25)
  inside-blockage at [24,24 .. 24.5,24.5] vs [20,20 .. 28,28] (measure 0)
  not-square at [14,4 .. 14.8,4.5] (measure 0.8)
EOF

rc=0
"$pilfill" check check_report.pld > check_report.out || rc=$?
[[ $rc -eq 3 ]] || { echo "pilfill check exited $rc, want 3"; exit 1; }
diff check_report.expected check_report.out
