(* Tests for the Vpin analysis-tool library. *)

module Tools = Elfie_pin.Tools

let run_with ?limit tool =
  let machine, _ = Elfie_pin.Run.instantiate (Tutil.tiny_run_spec "tools") in
  Tools.run ?limit ~max_ins:Int64.max_int machine [ tool ];
  machine

let test_instruction_mix_totals () =
  let a = Tools.instruction_mix () in
  let machine = run_with a.Tools.tool in
  let m = a.Tools.result () in
  Alcotest.check Tutil.i64 "total equals retired"
    (Elfie_machine.Machine.total_retired machine)
    m.Tools.mix_total;
  let sum = List.fold_left (fun acc (_, n) -> Int64.add acc n) 0L m.Tools.mix_classes in
  Alcotest.check Tutil.i64 "classes sum to total" m.Tools.mix_total sum;
  Alcotest.(check bool) "has branches" true
    (List.mem_assoc "branch" m.Tools.mix_classes)

let test_mix_limit () =
  let a = Tools.instruction_mix () in
  let _ = run_with ~limit:5_000L a.Tools.tool in
  Alcotest.check Tutil.i64 "stops at limit" 5_000L (a.Tools.result ()).Tools.mix_total

let test_footprint_covers_working_set () =
  let a = Tools.memory_footprint () in
  let _ = run_with a.Tools.tool in
  let f = a.Tools.result () in
  (* 32 KiB working set = 8 pages (plus stack/scratch pages). *)
  Alcotest.(check bool) "at least the buffer pages" true (f.Tools.fp_pages >= 8);
  Alcotest.(check bool) "lines >= pages" true (f.Tools.fp_lines >= f.Tools.fp_pages);
  Alcotest.(check bool) "bytes >= accesses" true
    (f.Tools.fp_bytes_read >= f.Tools.fp_reads)

let test_branch_profile_rates () =
  let a = Tools.branch_profile () in
  let _ = run_with a.Tools.tool in
  let b = a.Tools.result () in
  Alcotest.(check bool) "taken <= executed" true (b.Tools.br_taken <= b.Tools.br_executed);
  Alcotest.(check bool) "hottest nonempty" true (b.Tools.br_hottest <> []);
  Alcotest.(check bool) "top ten at most" true (List.length b.Tools.br_hottest <= 10)

let test_block_profile () =
  let a = Tools.block_profile () in
  let _ = run_with a.Tools.tool in
  let b = a.Tools.result () in
  Alcotest.(check bool) "several blocks" true (b.Tools.bb_blocks > 5);
  match b.Tools.bb_hottest with
  | (_, hottest) :: _ ->
      (* The hottest block is a kernel inner loop: thousands of runs. *)
      Alcotest.(check bool) "hot block is hot" true (hottest > 1000)
  | [] -> Alcotest.fail "no blocks"

(* A region ELFie of the tiny benchmark with an SSC marker, loaded on a
   fresh machine, and its pinball. *)
let marked_elfie name =
  let pb = Tutil.tiny_pinball name in
  let image =
    Elfie_core.Pinball2elf.convert
      ~options:
        { Elfie_core.Pinball2elf.default_options with
          marker = Some (Elfie_core.Pinball2elf.Ssc 9L) }
      pb
  in
  let machine =
    Elfie_machine.Machine.create
      (Elfie_machine.Machine.Free { seed = 3L; quantum_min = 50; quantum_max = 50 })
  in
  let kernel = Elfie_kernel.Vkernel.create (Elfie_kernel.Fs.create ()) in
  Elfie_kernel.Vkernel.install kernel machine;
  let _ = Elfie_kernel.Loader.load kernel machine image ~argv:[ "e" ] ~env:[] in
  (pb, machine)

let test_from_marker_gating () =
  (* Run on an ELFie from its marker, a tool must count only the
     embedded region (plus its small post-arm epilogue), never the much
     larger startup stack-copy code. *)
  let pb, machine = marked_elfie "toolgate" in
  let a = Tools.instruction_mix () in
  Tools.run ~from_marker:true ~max_ins:10_000_000L machine [ a.Tools.tool ];
  let m = a.Tools.result () in
  let region = Elfie_pinball.Pinball.total_icount pb in
  Alcotest.(check bool) "counts region only" true
    (Int64.abs (Int64.sub m.Tools.mix_total region) < 16L)

(* From a marker, [~limit] counts past the marker, not past the
   machine's first instruction: the startup code before it is not
   charged to the bound. *)
let test_limit_from_marker () =
  let _, machine = marked_elfie "toollimit" in
  let a = Tools.instruction_mix () in
  Tools.run ~from_marker:true ~limit:1_000L ~max_ins:10_000_000L machine
    [ a.Tools.tool ];
  Alcotest.check Tutil.i64 "limit past the marker" 1_000L
    (a.Tools.result ()).Tools.mix_total

(* Block heads are per thread: a thread switch in mid-block must
   neither start a block in the thread switched to nor end the one
   switched away from. The machine's block observer, fed to a profiler,
   tracks boundaries per thread; the tool must find the same heads. *)
let test_block_heads_per_thread () =
  let machine, _ =
    Elfie_pin.Run.instantiate (Tutil.tiny_run_spec ~threads:4 "bbmt")
  in
  let a = Tools.block_profile () in
  let p = Elfie_obs.Profile.create () in
  Elfie_machine.Machine.set_block_observer machine
    (Some
       (fun ~tid ~pcs ~n ~ends_block ->
         Elfie_obs.Profile.note_block p ~tid ~pcs ~n ~ends_block));
  Tools.run ~max_ins:300_000L machine [ a.Tools.tool ];
  let heads = List.map fst (Elfie_obs.Profile.hot_blocks ~k:max_int p) in
  let b = a.Tools.result () in
  Alcotest.(check int) "same number of heads" (List.length heads) b.Tools.bb_blocks;
  List.iter
    (fun (pc, _) ->
      Alcotest.(check bool) (Printf.sprintf "0x%Lx is a head" pc) true
        (List.mem pc heads))
    b.Tools.bb_hottest

(* [Tools.run ~limit] lets the tools see the first [limit] instructions
   with all their events: memory accesses and branches included, the
   [limit]-th instruction's too. The reference is a probe alone on a
   machine of its own that runs the program to its end, so a run that
   stops short shows as well as one that runs on. *)
let test_limit_admits_whole_instructions () =
  let rs =
    Elfie_workloads.Programs.run_spec
      (Elfie_workloads.Programs.spec
         ~phases:[ { kernel = Elfie_workloads.Kernels.Stream; reps = 40 } ]
         ~outer_reps:1 ~threads:1 ~ws_bytes:4096 "gate")
  in
  let probe callouts =
    { (Elfie_pin.Pintool.empty ~name:"probe") with instrument = Some (fun _ _ -> callouts) }
  in
  (* [accesses.(n)] and [branches.(n)]: the events of the [n]-th
     instruction. *)
  let accesses = Array.make 401 0 and branches = Array.make 401 0 in
  let seen = ref 0 in
  let bump a = if !seen <= 400 then a.(!seen) <- a.(!seen) + 1 in
  let machine, _ = Elfie_pin.Run.instantiate rs in
  let detach =
    Elfie_pin.Pintool.attach machine
      [
        probe
          {
            Elfie_machine.Machine.before = Some (fun _ -> incr seen);
            read = Some (fun _ _ _ -> bump accesses);
            write = Some (fun _ _ _ -> bump accesses);
            branch = Some (fun _ _ -> bump branches);
          };
      ]
  in
  Elfie_machine.Machine.run ~max_ins:1_000L machine;
  detach ();
  (* The program ends within the cuts: a [limit] past its end cuts
     nothing. *)
  let total = !seen in
  let want_accesses = ref 0 and want_branches = ref 0 in
  for limit = 1 to 400 do
    want_accesses := !want_accesses + accesses.(limit);
    want_branches := !want_branches + branches.(limit);
    let fp = Tools.memory_footprint () in
    let br = Tools.branch_profile () in
    let ran = ref 0 in
    let count =
      probe { Elfie_machine.Machine.no_callouts with before = Some (fun _ -> incr ran) }
    in
    let machine, _ = Elfie_pin.Run.instantiate rs in
    Tools.run ~limit:(Int64.of_int limit) ~max_ins:1_000L machine
      [ fp.Tools.tool; br.Tools.tool; count ];
    let f = fp.Tools.result () in
    Alcotest.(check int)
      (Printf.sprintf "instructions at limit %d" limit)
      (min limit total) !ran;
    Alcotest.(check int)
      (Printf.sprintf "accesses at limit %d" limit)
      !want_accesses
      (Int64.to_int (Int64.add f.Tools.fp_reads f.Tools.fp_writes));
    Alcotest.(check int)
      (Printf.sprintf "branches at limit %d" limit)
      !want_branches
      (Int64.to_int (br.Tools.result ()).Tools.br_executed)
  done

let suite =
  [
    Alcotest.test_case "instruction mix totals" `Quick test_instruction_mix_totals;
    Alcotest.test_case "mix limit" `Quick test_mix_limit;
    Alcotest.test_case "footprint covers working set" `Quick
      test_footprint_covers_working_set;
    Alcotest.test_case "branch profile rates" `Quick test_branch_profile_rates;
    Alcotest.test_case "block profile" `Quick test_block_profile;
    Alcotest.test_case "marker gating on ELFies" `Quick test_from_marker_gating;
    Alcotest.test_case "block heads per thread" `Quick test_block_heads_per_thread;
    Alcotest.test_case "limit admits whole instructions" `Quick
      test_limit_admits_whole_instructions;
    Alcotest.test_case "limit counts from the marker" `Quick test_limit_from_marker;
  ]
