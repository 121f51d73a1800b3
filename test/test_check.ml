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
       (Validate.pinball_vs_elfie (Lazy.force pinball) image))

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
    (has_code Diag.Thread_mismatch (Validate.pinball_vs_elfie fake image))

let test_file_set_orphan () =
  let pb = Lazy.force pinball in
  let files = Pinball.to_files pb @ [ ("9.reg", List.assoc "0.reg" (Pinball.to_files pb)) ] in
  Alcotest.(check bool)
    "orphan reg file detected" true
    (has_code Diag.Thread_mismatch (Validate.file_set ~name:pb.Pinball.name files))

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
  match Sentinel.constrained bad with
  | [] -> Alcotest.fail "tampered icount replayed cleanly"
  | d :: _ ->
      Alcotest.(check bool) "divergence code" true (d.Diag.code = Diag.Divergence);
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

let suite =
  [
    Alcotest.test_case "clean pinball validates" `Quick test_clean_pinball;
    Alcotest.test_case "thread mismatch" `Quick test_thread_mismatch;
    Alcotest.test_case "icount mismatch" `Quick test_icount_mismatch;
    Alcotest.test_case "page overlap" `Quick test_page_overlap;
    Alcotest.test_case "entry out of bounds" `Quick test_entry_out_of_bounds;
    Alcotest.test_case "clean elfie validates" `Quick test_clean_elfie;
    Alcotest.test_case "cross thread mismatch" `Quick test_cross_thread_mismatch;
    Alcotest.test_case "file-set orphan reg" `Quick test_file_set_orphan;
    Alcotest.test_case "sentinel clean" `Quick test_sentinel_clean;
    Alcotest.test_case "sentinel divergence" `Quick test_sentinel_divergence;
    Alcotest.test_case "fault sweep: pinball" `Quick test_fault_pinball_no_crashes;
    Alcotest.test_case "fault sweep: elf" `Quick test_fault_elf_no_crashes;
  ]
