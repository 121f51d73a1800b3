(* Tests for the elfie_check subsystem: validators, replay sentinel and
   the fault-injection harness. *)

module Diag = Elfie_util.Diag
module Pinball = Elfie_pinball.Pinball
module Validate = Elfie_check.Validate
module Sentinel = Elfie_check.Sentinel
module Fault_inject = Elfie_check.Fault_inject

let pinball = lazy (Tutil.tiny_pinball "check_pb")

let has_code code ds = List.exists (fun d -> d.Diag.code = code) ds

let test_clean_pinball () =
  let pb = Lazy.force pinball in
  Alcotest.(check (list string))
    "no diagnostics" []
    (List.map Diag.to_string (Validate.pinball pb))

let test_thread_mismatch () =
  let pb = Lazy.force pinball in
  let bad = { pb with Pinball.icounts = Array.append pb.icounts [| 5L |] } in
  Alcotest.(check bool)
    "thread mismatch detected" true
    (has_code Diag.Thread_mismatch (Validate.pinball bad))

let test_icount_mismatch () =
  let pb = Lazy.force pinball in
  (* Give the region a schedule whose slices cannot add up. *)
  let bad = { pb with Pinball.schedule = [ (0, 1) ] } in
  Alcotest.(check bool)
    "icount mismatch detected" true
    (has_code Diag.Icount_mismatch (Validate.pinball bad))

let test_page_overlap () =
  let pb = Lazy.force pinball in
  let overlapping =
    match pb.Pinball.pages with
    | (a, d) :: rest -> (a, d) :: (Int64.add a 8L, Bytes.make 64 'x') :: rest
    | [] -> Alcotest.fail "tiny pinball carries no pages"
  in
  Alcotest.(check bool)
    "overlap detected" true
    (has_code Diag.Segment_overlap (Validate.pinball { pb with pages = overlapping }))

let test_entry_out_of_bounds () =
  let pb = Lazy.force pinball in
  let contexts = Array.map Elfie_machine.Context.copy pb.Pinball.contexts in
  Elfie_machine.Context.set_rip contexts.(0) (0x1L);
  Alcotest.(check bool)
    "rogue entry detected" true
    (has_code Diag.Entry_out_of_bounds (Validate.pinball { pb with contexts }))

(* Cross-checks between a pinball and the ELFie generated from it: one
   thread entry point per pinball thread, and every checkpointed page
   carried by some section (stack pages ride along as sections too,
   allocatable or not). *)
let pinball_vs_elfie (pb : Pinball.t) (image : Elfie_elf.Image.t) =
  let artifact = "<elfie>" in
  let n = Pinball.num_threads pb in
  let entry_count =
    List.length
      (List.filter
         (fun (s : Elfie_elf.Image.symbol) ->
           String.starts_with ~prefix:"elfie_thread_entry" s.sym_name)
         image.symbols)
  in
  let threads =
    if image.exec && entry_count <> n then
      [
        Diag.f ~artifact Diag.Thread_mismatch
          "ELFie has %d thread entry point(s) for a %d-thread pinball"
          entry_count n;
      ]
    else []
  in
  let carried (addr, data) =
    let fin = Int64.add addr (Int64.of_int (Bytes.length data)) in
    List.exists
      (fun (s : Elfie_elf.Image.section) ->
        Int64.unsigned_compare s.addr addr <= 0
        && Int64.unsigned_compare fin
             (Int64.add s.addr (Int64.of_int (Bytes.length s.data)))
           <= 0)
      image.sections
  in
  let pages =
    List.filter_map
      (fun (addr, data) ->
        if carried (addr, data) then None
        else
          Some
            (Diag.f ~artifact Diag.Malformed
               "checkpointed page 0x%Lx (%d bytes) is not carried by any \
                section"
               addr (Bytes.length data)))
      pb.pages
  in
  threads @ pages

let convert pb =
  let sysstate = Elfie_pin.Sysstate.analyze pb in
  let options =
    { Elfie_core.Pinball2elf.default_options with sysstate = Some sysstate }
  in
  Elfie_core.Pinball2elf.convert ~options pb

let test_clean_elfie () =
  let image = convert (Lazy.force pinball) in
  Alcotest.(check (list string))
    "elf clean" []
    (List.map Diag.to_string (Validate.elf image));
  Alcotest.(check (list string))
    "cross clean" []
    (List.map Diag.to_string
       (pinball_vs_elfie (Lazy.force pinball) image))

let test_cross_thread_mismatch () =
  let pb = Lazy.force pinball in
  let image = convert pb in
  (* Claim an extra thread: the ELFie now lacks an entry point for it. *)
  let fake =
    {
      pb with
      Pinball.contexts =
        Array.append pb.contexts [| Elfie_machine.Context.create () |];
      icounts = Array.append pb.icounts [| 1L |];
      injections = Array.append pb.injections [| [] |];
    }
  in
  Alcotest.(check bool)
    "missing entry point detected" true
    (has_code Diag.Thread_mismatch (pinball_vs_elfie fake image))

(* --- Sentinel --------------------------------------------------------------- *)

let test_sentinel_clean () =
  let pb = Lazy.force pinball in
  Alcotest.(check (list string))
    "faithful replay" []
    (List.map Diag.to_string (Sentinel.cross_check pb))

let test_sentinel_divergence () =
  let pb = Lazy.force pinball in
  (* Claim one more instruction than the region retired: replay must
     report the divergence with its location. *)
  let icounts = Array.copy pb.Pinball.icounts in
  icounts.(0) <- Int64.add icounts.(0) 5L;
  let bad = { pb with Pinball.icounts } in
  match Sentinel.cross_check bad with
  | [] -> Alcotest.fail "tampered icount replayed cleanly"
  | d :: _ ->
      Alcotest.(check bool) "divergence code" true (d.Diag.code = Diag.Divergence);
      (* The schedule-enforced pass must catch it; the injection-less
         pass only runs when that one is clean. *)
      Alcotest.(check bool)
        "constrained pass" true
        (String.starts_with ~prefix:"constrained replay" d.Diag.message);
      Alcotest.(check bool)
        "mentions pc" true
        (Tutil.contains d.Diag.message "pc 0x")

(* --- Fault injection -------------------------------------------------------- *)

let test_fault_pinball_no_crashes () =
  let report = Fault_inject.run_pinball ~iterations:4 (Lazy.force pinball) in
  Alcotest.(check int)
    "cases run"
    (4 * List.length Fault_inject.all_faults)
    report.Fault_inject.total;
  Alcotest.(check int) "no crashes" 0 (List.length (Fault_inject.crashes report));
  Alcotest.(check bool) "some faults diagnosed" true (report.Fault_inject.diagnosed > 0)

let test_fault_elf_no_crashes () =
  let report = Fault_inject.run_elf ~iterations:4 (convert (Lazy.force pinball)) in
  Alcotest.(check int) "no crashes" 0 (List.length (Fault_inject.crashes report));
  Alcotest.(check bool) "some faults diagnosed" true (report.Fault_inject.diagnosed > 0)

(* The sweep's corruptions come from one fixed seed: two sweeps of one
   artifact try the same cases with the same outcomes. *)
let test_fault_sweep_deterministic () =
  let pb = Lazy.force pinball in
  let cases () =
    List.map
      (fun (c : Fault_inject.case) -> (c.detail, c.outcome))
      (Fault_inject.run_pinball ~iterations:3 pb).Fault_inject.cases
  in
  Alcotest.(check bool) "same cases, same outcomes" true (cases () = cases ())

let suite =
  [
    Alcotest.test_case "clean pinball validates" `Quick test_clean_pinball;
    Alcotest.test_case "thread mismatch" `Quick test_thread_mismatch;
    Alcotest.test_case "icount mismatch" `Quick test_icount_mismatch;
    Alcotest.test_case "page overlap" `Quick test_page_overlap;
    Alcotest.test_case "entry out of bounds" `Quick test_entry_out_of_bounds;
    Alcotest.test_case "clean elfie validates" `Quick test_clean_elfie;
    Alcotest.test_case "cross thread mismatch" `Quick test_cross_thread_mismatch;
    Alcotest.test_case "sentinel clean" `Quick test_sentinel_clean;
    Alcotest.test_case "sentinel divergence" `Quick test_sentinel_divergence;
    Alcotest.test_case "fault sweep: pinball" `Quick test_fault_pinball_no_crashes;
    Alcotest.test_case "fault sweep: elf" `Quick test_fault_elf_no_crashes;
    Alcotest.test_case "fault sweep: deterministic" `Quick
      test_fault_sweep_deterministic;
  ]
