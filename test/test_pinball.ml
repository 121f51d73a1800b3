(* Tests for the pinball container format. *)

open Elfie_pinball

let of_files files =
  match Pinball.of_files_result ~name:"t" files with
  | Ok pb -> pb
  | Error d -> Alcotest.fail (Elfie_util.Diag.to_string d)

let sample_entry =
  {
    Pinball.sys_nr = 0;
    sys_args = [| 3L; 0x60_0000L; 64L; 0L; 0L; 0L |];
    sys_path = None;
    sys_ret = 64L;
    sys_writes = [ (0x60_0000L, "abc") ];
    sys_reexec = false;
  }

let sample () =
  let ctx = Elfie_machine.Context.create () in
  Elfie_machine.Context.set ctx Elfie_isa.Reg.RSP 0x7fff_0000L;
  Elfie_machine.Context.set_rip ctx 0x40_0000L;
  {
    Pinball.name = "t";
    fat = true;
    contexts = [| ctx; Elfie_machine.Context.create () |];
    pages =
      [ (0x40_0000L, Bytes.make 4096 'c'); (0x60_0000L, Bytes.make 4096 'd') ];
    icounts = [| 1000L; 900L |];
    schedule = [ (0, 500); (1, 900); (0, 500) ];
    injections =
      [| [ sample_entry;
           { sample_entry with sys_nr = 2; sys_path = Some "/in"; sys_reexec = false } ];
         [] |];
    brk = 0x80_0000L;
    symbols = [ ("_start", 0x40_0000L); ("worker", 0x40_0100L) ];
  }

let test_files_roundtrip () =
  let pb = sample () in
  let pb' = of_files (Pinball.to_files pb) in
  Alcotest.(check bool) "equal" true (Pinball.equal pb pb')

let test_file_set_names () =
  let files = List.map fst (Pinball.to_files (sample ())) in
  List.iter
    (fun f -> Alcotest.(check bool) f true (List.mem f files))
    [ "text"; "global.log"; "inj"; "order"; "0.reg"; "1.reg" ]

let test_missing_piece () =
  let files = List.remove_assoc "inj" (Pinball.to_files (sample ())) in
  match Pinball.of_files_result ~name:"t" files with
  | Ok _ -> Alcotest.fail "missing inj member was accepted"
  | Error d ->
      Alcotest.(check bool)
        "missing-file code" true
        (d.Elfie_util.Diag.code = Elfie_util.Diag.Missing_file);
      (* The message must name the expected file so the user can fix it. *)
      Alcotest.(check bool)
        "names the member" true
        (Tutil.contains d.Elfie_util.Diag.message "t.inj")

let test_load_error_names_dir () =
  let dir = Filename.temp_file "pinball" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  match Pinball.load_result ~dir ~name:"ghost" with
  | Ok _ -> Alcotest.fail "empty directory yielded a pinball"
  | Error d ->
      Alcotest.(check bool)
        "names the directory" true
        (Tutil.contains d.Elfie_util.Diag.message dir);
      Alcotest.(check bool)
        "names the expected file" true
        (Tutil.contains d.Elfie_util.Diag.message "ghost.global.log")

let test_disk_roundtrip () =
  let dir = Filename.temp_file "pinball" "" in
  Sys.remove dir;
  let pb = sample () in
  Pinball.save pb ~dir;
  let pb' = Pinball.load ~dir ~name:"t" in
  Alcotest.(check bool) "disk equal" true (Pinball.equal pb pb')

let test_accessors () =
  let pb = sample () in
  Alcotest.(check int) "threads" 2 (Pinball.num_threads pb);
  Alcotest.check Tutil.i64 "icount" 1900L (Pinball.total_icount pb);
  Alcotest.(check int) "image bytes" 8192 (Pinball.image_bytes pb)

let prop_injection_roundtrip =
  let entry_gen =
    let open QCheck.Gen in
    let* nr = int_range 0 300 in
    let* ret = map Int64.of_int (int_range (-100) 10_000) in
    let* reexec = bool in
    let* path = opt (map (Printf.sprintf "/p%d") (int_range 0 99)) in
    let* writes =
      list_size (int_range 0 3)
        (let* addr = map Int64.of_int (int_range 0 1_000_000) in
         let* s = string_size (int_range 0 32) in
         return (addr, s))
    in
    return
      { Pinball.sys_nr = nr; sys_args = Array.make 6 7L; sys_path = path;
        sys_ret = ret; sys_writes = writes; sys_reexec = reexec }
  in
  QCheck.Test.make ~name:"pinball roundtrip (random injections)" ~count:100
    (QCheck.make QCheck.Gen.(list_size (int_range 0 10) entry_gen))
    (fun entries ->
      let pb = { (sample ()) with Pinball.injections = [| entries; [] |] } in
      Pinball.equal pb (of_files (Pinball.to_files pb)))

(* Any single-member corruption must yield either a parsed pinball or a
   structured diagnostic — never another exception. *)
let classify_corrupted files =
  match Pinball.of_files_result ~name:"t" files with
  | Ok _ | Error _ -> true
  | exception e -> QCheck.Test.fail_reportf "escaped: %s" (Printexc.to_string e)

let member_gen =
  QCheck.Gen.oneofl [ "text"; "global.log"; "inj"; "order"; "0.reg"; "1.reg" ]

let prop_bit_flip_total =
  QCheck.Test.make ~name:"pinball reader total under bit flips" ~count:300
    (QCheck.make
       QCheck.Gen.(triple member_gen (int_bound 10_000) (int_bound 7)))
    (fun (member, off, bit) ->
      let files = Pinball.to_files (sample ()) in
      let content = List.assoc member files in
      QCheck.assume (String.length content > 0);
      let off = off mod String.length content in
      let b = Bytes.of_string content in
      Bytes.set b off
        (Char.chr (Char.code (Bytes.get b off) lxor (1 lsl bit)));
      classify_corrupted
        (List.map
           (fun (s, c) -> if s = member then (s, Bytes.to_string b) else (s, c))
           files))

let prop_truncation_total =
  QCheck.Test.make ~name:"pinball reader total under truncation" ~count:300
    (QCheck.make QCheck.Gen.(pair member_gen (int_bound 10_000)))
    (fun (member, keep) ->
      let files = Pinball.to_files (sample ()) in
      let content = List.assoc member files in
      let keep = if String.length content = 0 then 0 else keep mod String.length content in
      classify_corrupted
        (List.map
           (fun (s, c) -> if s = member then (s, String.sub c 0 keep) else (s, c))
           files))

let suite =
  [
    Alcotest.test_case "files roundtrip" `Quick test_files_roundtrip;
    Alcotest.test_case "file-set names" `Quick test_file_set_names;
    Alcotest.test_case "missing piece fails" `Quick test_missing_piece;
    Alcotest.test_case "load error names dir" `Quick test_load_error_names_dir;
    Alcotest.test_case "disk roundtrip" `Quick test_disk_roundtrip;
    Alcotest.test_case "accessors" `Quick test_accessors;
    QCheck_alcotest.to_alcotest prop_injection_roundtrip;
    QCheck_alcotest.to_alcotest prop_bit_flip_total;
    QCheck_alcotest.to_alcotest prop_truncation_total;
  ]
