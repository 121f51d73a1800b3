(* Unit and property tests for Elfie_util: byte I/O and the RNG. *)

open Elfie_util

let test_writer_reader_scalars () =
  let w = Byteio.Writer.create () in
  Byteio.Writer.u8 w 0xab;
  Byteio.Writer.u16 w 0xbeef;
  Byteio.Writer.u32 w 0xdeadbeef;
  Byteio.Writer.u64 w 0x0123456789abcdefL;
  Byteio.Writer.i32 w (-42);
  let r = Byteio.Reader.of_bytes (Byteio.Writer.contents w) in
  Alcotest.(check int) "u8" 0xab (Byteio.Reader.u8 r);
  Alcotest.(check int) "u16" 0xbeef (Byteio.Reader.u16 r);
  Alcotest.(check int) "u32" 0xdeadbeef (Byteio.Reader.u32 r);
  Alcotest.check Tutil.i64 "u64" 0x0123456789abcdefL (Byteio.Reader.u64 r);
  Alcotest.(check int) "i32" (-42) (Byteio.Reader.i32 r);
  Alcotest.(check int) "exhausted" 0 (Byteio.Reader.remaining r)

let test_little_endian () =
  let w = Byteio.Writer.create () in
  Byteio.Writer.u32 w 0x11223344;
  let b = Byteio.Writer.contents w in
  Alcotest.(check char) "lsb first" '\x44' (Bytes.get b 0);
  Alcotest.(check char) "msb last" '\x11' (Bytes.get b 3)

let test_truncated () =
  let r = Byteio.Reader.of_string "ab" in
  Alcotest.check_raises "u32 on 2 bytes"
    (Byteio.Truncated "u8: need 1 bytes at offset 2, have 0") (fun () ->
      ignore (Byteio.Reader.u32 r))

let test_pad_to () =
  let w = Byteio.Writer.create () in
  Byteio.Writer.u8 w 1;
  Byteio.Writer.pad_to w 8;
  Alcotest.(check int) "padded" 8 (Byteio.Writer.length w);
  Alcotest.check_raises "backwards pad"
    (Invalid_argument "Byteio.Writer.pad_to: at 8, past 4") (fun () ->
      Byteio.Writer.pad_to w 4)

let test_seek_and_bytes () =
  let r = Byteio.Reader.of_string "hello world" in
  Byteio.Reader.seek r 6;
  Alcotest.(check string) "tail" "world" (Byteio.Reader.string_n r 5);
  Byteio.Reader.seek r 0;
  Alcotest.(check string) "head" "hello" (Bytes.to_string (Byteio.Reader.bytes r 5))

let test_i32_range () =
  let w = Byteio.Writer.create () in
  Alcotest.check_raises "out of range"
    (Invalid_argument "Byteio.Writer.i32: 2147483648 out of range") (fun () ->
      Byteio.Writer.i32 w 0x8000_0000)

let prop_u64_roundtrip =
  QCheck.Test.make ~name:"u64 write/read roundtrip" ~count:200
    QCheck.int64 (fun v ->
      let w = Byteio.Writer.create () in
      Byteio.Writer.u64 w v;
      Byteio.Reader.u64 (Byteio.Reader.of_bytes (Byteio.Writer.contents w)) = v)

let prop_i32_roundtrip =
  QCheck.Test.make ~name:"i32 write/read roundtrip" ~count:200
    (QCheck.int_range (-0x8000_0000) 0x7fff_ffff) (fun v ->
      let w = Byteio.Writer.create () in
      Byteio.Writer.i32 w v;
      Byteio.Reader.i32 (Byteio.Reader.of_bytes (Byteio.Writer.contents w)) = v)

let test_rng_deterministic () =
  let a = Rng.create 42L and b = Rng.create 42L in
  for _ = 1 to 100 do
    Alcotest.check Tutil.i64 "same stream" (Rng.next64 a) (Rng.next64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1L and b = Rng.create 2L in
  Alcotest.(check bool) "different streams" false (Rng.next64 a = Rng.next64 b)

let test_rng_int_bounds () =
  let rng = Rng.create 7L in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    Alcotest.(check bool) "in [0,17)" true (v >= 0 && v < 17)
  done;
  Alcotest.check_raises "bad bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_float_bounds () =
  let rng = Rng.create 9L in
  for _ = 1 to 1000 do
    let v = Rng.float rng in
    Alcotest.(check bool) "in [0,1)" true (v >= 0.0 && v < 1.0)
  done

let test_shuffle_is_permutation () =
  let rng = Rng.create 5L in
  let a = Array.init 50 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted;
  Alcotest.(check bool) "actually shuffled" true (a <> Array.init 50 Fun.id)

let test_split_independent () =
  let parent = Rng.create 11L in
  let child = Rng.split parent in
  Alcotest.(check bool) "distinct" false (Rng.next64 parent = Rng.next64 child)

let suite =
  [
    Alcotest.test_case "writer/reader scalars" `Quick test_writer_reader_scalars;
    Alcotest.test_case "little endian layout" `Quick test_little_endian;
    Alcotest.test_case "truncated read raises" `Quick test_truncated;
    Alcotest.test_case "pad_to" `Quick test_pad_to;
    Alcotest.test_case "seek and bytes" `Quick test_seek_and_bytes;
    Alcotest.test_case "i32 range check" `Quick test_i32_range;
    QCheck_alcotest.to_alcotest prop_u64_roundtrip;
    QCheck_alcotest.to_alcotest prop_i32_roundtrip;
    Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng seed sensitivity" `Quick test_rng_seed_sensitivity;
    Alcotest.test_case "rng int bounds" `Quick test_rng_int_bounds;
    Alcotest.test_case "rng float bounds" `Quick test_rng_float_bounds;
    Alcotest.test_case "shuffle is a permutation" `Quick test_shuffle_is_permutation;
    Alcotest.test_case "split independence" `Quick test_split_independent;
  ]
