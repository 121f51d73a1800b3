#!/bin/sh
# Usage: vpin.sh BINDIR
#
# Builds one region ELFie with the command-line tools (pinplay log, then
# pinball2elf with an SSC marker and the region's sysstate) and prints
# what each vpin analysis reports on it, then vpin's instruction mix of
# a benchmark run. Last, each tool is given an input that does not
# exist: it prints the reader's message and exits 1; vpin is given
# a --limit below 1: a usage error, exit 124; and each tool that reads
# an ELFie is given a malformed one (the first 200 bytes of the region
# ELFie): it prints the ELF reader's diagnostic and exits 1.
set -e
bin=$1
work=vpin.work
rm -rf "$work"
mkdir "$work"
trap 'rm -rf "$work"' EXIT
cd "$work"
"../$bin/pinplay.exe" log -b 525.x264_r -o pb --start 100000 --length 50000 \
  --log-fat true --sysstate >/dev/null
"../$bin/pinball2elf.exe" -d pb -n pinball -o r.elfie --roi-start ssc:77 \
  --sysstate pb/pinball.sysstate >/dev/null
for t in insmix footprint branchprof bbprof; do
  echo "# vpin -t $t --elf r.elfie --sysstate pb/pinball.sysstate --limit 50000"
  "../$bin/vpin.exe" -t $t --elf r.elfie --sysstate pb/pinball.sysstate \
    --limit 50000
done
echo "# vpin -t insmix -b 525.x264_r --limit 100000"
"../$bin/vpin.exe" -t insmix -b 525.x264_r --limit 100000
fails() {
  echo "# $*"
  tool=$1
  shift
  "../$bin/$tool.exe" "$@" 2>&1 && status=0 || status=$?
  echo "exit $status"
}
fails pinball2elf -d nope -n pinball -o x.elfie
fails pinplay replay -d nope
fails elfie_run nope.elfie
fails vpin -t insmix --elf nope.elfie
fails vpin -t insmix --elf r.elfie --sysstate nope
fails vpin -t insmix --elf r.elfie --sysstate pb/pinball.sysstate --limit=-5
fails vpin -t insmix --elf r.elfie --sysstate pb/pinball.sysstate --limit=0
head -c 200 r.elfie > bad.elfie
fails vpin -t insmix --elf bad.elfie
fails vgdb bad.elfie
fails vx86asm objdump bad.elfie
fails elfie_run bad.elfie
fails pinball2elf check bad.elfie
