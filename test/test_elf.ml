(* Tests for the ELF64 image writer/reader. *)

open Elfie_elf

let sample () =
  {
    Image.exec = true;
    entry = 0x40_0000L;
    sections =
      [
        Image.section ~executable:true ~name:".text" ~addr:0x40_0000L
          (Bytes.of_string "\x14\x11");
        Image.section ~writable:true ~name:".data" ~addr:0x60_0000L
          (Bytes.of_string "hello");
        Image.section ~alloc:false ~name:".stack.0x7fff" ~addr:0x7fff_0000L
          (Bytes.make 64 'S');
      ];
    symbols =
      [
        { Image.sym_name = "_start"; value = 0x40_0000L; func = true };
        { Image.sym_name = ".t0.rax"; value = 42L; func = false };
      ];
  }

let test_roundtrip () =
  let img = sample () in
  let img' = Image.read (Image.write img) in
  Alcotest.(check bool) "exec" img.Image.exec img'.Image.exec;
  Alcotest.check Tutil.i64 "entry" img.Image.entry img'.Image.entry;
  Alcotest.(check int) "sections" 3 (List.length img'.Image.sections);
  Alcotest.(check int) "symbols" 2 (List.length img'.Image.symbols);
  List.iter2
    (fun (a : Image.section) (b : Image.section) ->
      Alcotest.(check string) "name" a.name b.name;
      Alcotest.check Tutil.i64 "addr" a.addr b.addr;
      Alcotest.(check bool) "alloc" a.alloc b.alloc;
      Alcotest.(check bool) "writable" a.writable b.writable;
      Alcotest.(check bool) "executable" a.executable b.executable;
      Alcotest.(check bytes) "data" a.data b.data)
    img.Image.sections img'.Image.sections;
  List.iter2
    (fun (a : Image.symbol) (b : Image.symbol) ->
      Alcotest.(check string) "sym name" a.sym_name b.sym_name;
      Alcotest.check Tutil.i64 "sym value" a.value b.value;
      Alcotest.(check bool) "func" a.func b.func)
    img.Image.symbols img'.Image.symbols

let test_magic_bytes () =
  let b = Image.write (sample ()) in
  Alcotest.(check string) "ELF magic" "\x7fELF" (Bytes.sub_string b 0 4);
  Alcotest.(check int) "class 64" 2 (Char.code (Bytes.get b 4));
  Alcotest.(check int) "little endian" 1 (Char.code (Bytes.get b 5))

let test_loadable_excludes_non_alloc () =
  let segs = Image.loadable (sample ()) in
  Alcotest.(check int) "only alloc sections load" 2 (List.length segs);
  let addrs = List.map (fun (a, _, _) -> a) segs in
  Alcotest.(check bool) "stack section not mapped" false
    (List.mem 0x7fff_0000L addrs)

let test_find () =
  let img = sample () in
  Alcotest.(check bool) "find .data" true (Image.find_section img ".data" <> None);
  Alcotest.(check bool) "find missing" true (Image.find_section img ".bss" = None);
  Alcotest.(check (option Tutil.i64)) "symbol" (Some 42L)
    (Image.find_symbol img ".t0.rax")

let check_bad name mutate =
  let b = Image.write (sample ()) in
  mutate b;
  Alcotest.test_case name `Quick (fun () ->
      match Image.read b with
      | _ -> Alcotest.fail "expected a diagnostic"
      | exception Elfie_util.Diag.Error _ -> ())

let test_truncated_file () =
  let b = Image.write (sample ()) in
  match Image.read (Bytes.sub b 0 40) with
  | _ -> Alcotest.fail "expected a diagnostic"
  | exception Elfie_util.Diag.Error _ -> ()

let test_object_mode () =
  let img = { (sample ()) with Image.exec = false } in
  let img' = Image.read (Image.write img) in
  Alcotest.(check bool) "rel type" false img'.Image.exec

let prop_roundtrip =
  let section_gen =
    let open QCheck.Gen in
    let* name = map (Printf.sprintf ".s%d") (int_range 0 1000) in
    let* addr = map Int64.of_int (int_range 0 0x7fff_ffff) in
    let* len = int_range 0 256 in
    let* alloc = bool in
    let* writable = bool in
    let* executable = bool in
    let* byte = int_range 0 255 in
    return
      (Image.section ~alloc ~writable ~executable ~name ~addr
         (Bytes.make len (Char.chr byte)))
  in
  let image_gen =
    let open QCheck.Gen in
    let* sections = list_size (int_range 0 8) section_gen in
    let* symbols =
      list_size (int_range 0 8)
        (let* name = map (Printf.sprintf "sym%d") (int_range 0 100) in
         let* value = map Int64.of_int (int_range 0 1_000_000) in
         let* func = bool in
         return { Image.sym_name = name; value; func })
    in
    let* entry = map Int64.of_int (int_range 0 0xffff) in
    (* Section names must be distinct for a faithful roundtrip check. *)
    let names = List.mapi (fun i s -> { s with Image.name = Printf.sprintf ".s%d" i }) sections in
    return { Image.exec = true; entry; sections = names; symbols }
  in
  QCheck.Test.make ~name:"elf image roundtrip (random images)" ~count:200
    (QCheck.make image_gen) (fun img ->
      let img' = Image.read (Image.write img) in
      img' = img)

(* Robustness: byte-level corruption of a valid image must either parse
   or raise a diagnostic — never any other exception. *)
let prop_reader_total =
  let mutation_gen =
    QCheck.Gen.(list_size (int_range 1 8) (pair (int_range 0 10_000) (int_range 0 255)))
  in
  QCheck.Test.make ~name:"reader is total on corrupted images" ~count:500
    (QCheck.make mutation_gen) (fun mutations ->
      let b = Image.write (sample ()) in
      List.iter
        (fun (off, v) ->
          if off < Bytes.length b then Bytes.set b off (Char.chr v))
        mutations;
      match Image.read b with
      | _ -> true
      | exception Elfie_util.Diag.Error _ -> true
      | exception _ -> false)

let prop_reader_total_truncation =
  QCheck.Test.make ~name:"reader is total on truncated images" ~count:200
    QCheck.(int_range 0 4096) (fun len ->
      let b = Image.write (sample ()) in
      let b = Bytes.sub b 0 (min len (Bytes.length b)) in
      match Image.read b with
      | _ -> true
      | exception Elfie_util.Diag.Error _ -> true
      | exception _ -> false)

(* Rejections through the Result boundary carry a structured diagnostic:
   the caller's artifact label and a non-empty message, never a bare
   exception. *)
let prop_diagnostics_structured =
  let mutation_gen =
    QCheck.Gen.(list_size (int_range 1 8) (pair (int_range 0 10_000) (int_range 0 255)))
  in
  QCheck.Test.make ~name:"corrupted images yield structured diagnostics"
    ~count:300 (QCheck.make mutation_gen) (fun mutations ->
      let b = Image.write (sample ()) in
      List.iter
        (fun (off, v) ->
          if off < Bytes.length b then Bytes.set b off (Char.chr v))
        mutations;
      match Image.read_result ~artifact:"fuzzed.elfie" b with
      | Ok _ -> true
      | Error d ->
          d.Elfie_util.Diag.artifact = "fuzzed.elfie"
          && String.length d.Elfie_util.Diag.message > 0
      | exception e ->
          QCheck.Test.fail_reportf "escaped: %s" (Printexc.to_string e))

let suite =
  [
    Alcotest.test_case "roundtrip" `Quick test_roundtrip;
    QCheck_alcotest.to_alcotest prop_reader_total;
    QCheck_alcotest.to_alcotest prop_reader_total_truncation;
    QCheck_alcotest.to_alcotest prop_diagnostics_structured;
    Alcotest.test_case "magic bytes" `Quick test_magic_bytes;
    Alcotest.test_case "loadable excludes non-alloc" `Quick
      test_loadable_excludes_non_alloc;
    Alcotest.test_case "find section/symbol" `Quick test_find;
    Alcotest.test_case "truncated file" `Quick test_truncated_file;
    Alcotest.test_case "object mode" `Quick test_object_mode;
    check_bad "bad magic" (fun b -> Bytes.set b 0 'X');
    check_bad "bad class" (fun b -> Bytes.set b 4 '\x01');
    check_bad "bad endianness" (fun b -> Bytes.set b 5 '\x02');
    check_bad "bad machine" (fun b -> Bytes.set b 18 '\x00');
    QCheck_alcotest.to_alcotest prop_roundtrip;
  ]
