module Byteio = Elfie_util.Byteio
module Diag = Elfie_util.Diag
module Simpoint = Elfie_simpoint.Simpoint

(* Bump a version whenever its wire format changes: old artifacts then
   read as format skew and are quarantined + recomputed by the store. *)
let format = function
  | Store.Pinball -> 1
  | Store.Bbv -> 1
  | Store.Simpoint -> 1
  | Store.Elfie -> 1
  | Store.Measurement -> 1

(* --- key builders ----------------------------------------------------------- *)

let seed_param = function
  | None -> []
  | Some s -> [ ("seed", Int64.to_string s) ]

let bbv_key ~program ~slice_size ?seed () =
  Store.key Store.Bbv ~program
    (("slice", Int64.to_string slice_size) :: seed_param seed)

let selection_key ~program ~(params : Simpoint.params) ?seed () =
  Store.key Store.Simpoint ~program
    ([
       ("slice", Int64.to_string params.slice_size);
       ("warmup", Int64.to_string params.warmup);
       ("max_k", string_of_int params.max_k);
       ("dims", string_of_int params.dims);
       ("sp_seed", Int64.to_string params.seed);
     ]
    @ seed_param seed)

let region_params ~start ~length seed =
  [ ("start", Int64.to_string start); ("length", Int64.to_string length) ]
  @ seed_param seed

let pinball_key ~program ~start ~length ?seed () =
  Store.key Store.Pinball ~program (region_params ~start ~length seed)

let elfie_key ~program ~start ~length ~warmup ?seed () =
  Store.key Store.Elfie ~program
    (("warmup", Int64.to_string warmup) :: region_params ~start ~length seed)

let measurement_key ~program ~start ~length ~warmup ~trials ~base_seed =
  Store.key Store.Measurement ~program
    ([
       ("warmup", Int64.to_string warmup);
       ("trials", string_of_int trials);
       ("base_seed", Int64.to_string base_seed);
     ]
    @ region_params ~start ~length None)

(* --- member archive --------------------------------------------------------- *)

(* Multi-file artifacts (pinball file sets, ELFie + sysstate bundles)
   pack into one payload: magic, member count, then length-prefixed
   (name, data) pairs. *)

let archive_magic = 0x5241_4645 (* "EFAR" *)

let pack_files files =
  let w = Byteio.Writer.create () in
  Byteio.Writer.u32 w archive_magic;
  Byteio.Writer.u32 w (List.length files);
  List.iter
    (fun (name, data) ->
      Byteio.Writer.u32 w (String.length name);
      Byteio.Writer.string w name;
      Byteio.Writer.u32 w (String.length data);
      Byteio.Writer.string w data)
    files;
  Bytes.to_string (Byteio.Writer.contents w)

let decode ~artifact f payload =
  match f (Byteio.Reader.of_string payload) with
  | v -> Ok v
  | exception Byteio.Truncated what ->
      Error
        (Diag.f ~artifact Diag.Truncated "payload ends inside %s" what)
  | exception Diag.Error d -> Error d

let unpack_files ~artifact payload =
  decode ~artifact
    (fun r ->
      if Byteio.Reader.u32 r <> archive_magic then
        Diag.fail ~artifact Diag.Bad_magic "not a farm member archive";
      let count = Byteio.Reader.u32 r in
      if count > 4096 then
        Diag.fail ~artifact Diag.Count_out_of_range
          "archive declares %d members" count;
      List.init count (fun _ ->
          let name = Byteio.Reader.string_n r (Byteio.Reader.u32 r) in
          let data = Byteio.Reader.string_n r (Byteio.Reader.u32 r) in
          (name, data)))
    payload

(* --- pinball ---------------------------------------------------------------- *)

let encode_pinball pb = pack_files (Elfie_pinball.Pinball.to_files pb)

let decode_pinball ~name payload =
  Result.bind (unpack_files ~artifact:"pinball-artifact" payload) (fun files ->
      Elfie_pinball.Pinball.of_files_result ~name files)

(* --- BBV profile ------------------------------------------------------------ *)

let encode_bbv (p : Elfie_pin.Bbv.profile) =
  let w = Byteio.Writer.create () in
  Byteio.Writer.u64 w p.slice_size;
  Byteio.Writer.u64 w p.total_instructions;
  Byteio.Writer.u32 w (List.length p.slices);
  List.iter
    (fun (s : Elfie_pin.Bbv.slice) ->
      Byteio.Writer.u32 w s.index;
      Byteio.Writer.u64 w s.instructions;
      Byteio.Writer.u32 w (Array.length s.vector);
      Array.iter
        (fun (block, count) ->
          Byteio.Writer.u64 w block;
          Byteio.Writer.u32 w count)
        s.vector)
    p.slices;
  Bytes.to_string (Byteio.Writer.contents w)

let decode_bbv payload =
  decode ~artifact:"bbv-artifact"
    (fun r ->
      let slice_size = Byteio.Reader.u64 r in
      let total_instructions = Byteio.Reader.u64 r in
      let nslices = Byteio.Reader.u32 r in
      if nslices > Byteio.Reader.remaining r then
        Diag.fail ~artifact:"bbv-artifact" Diag.Count_out_of_range
          "profile declares %d slices in %d remaining bytes" nslices
          (Byteio.Reader.remaining r);
      let slices =
        List.init nslices (fun _ ->
            let index = Byteio.Reader.u32 r in
            let instructions = Byteio.Reader.u64 r in
            let n = Byteio.Reader.u32 r in
            if n > Byteio.Reader.remaining r then
              Diag.fail ~artifact:"bbv-artifact" Diag.Count_out_of_range
                "slice declares %d blocks in %d remaining bytes" n
                (Byteio.Reader.remaining r);
            let vector =
              Array.init n (fun _ ->
                  let block = Byteio.Reader.u64 r in
                  let count = Byteio.Reader.u32 r in
                  (block, count))
            in
            { Elfie_pin.Bbv.index; vector; instructions })
      in
      { Elfie_pin.Bbv.slices; slice_size; total_instructions })
    payload

(* --- SimPoint selection ----------------------------------------------------- *)

let write_region w (r : Simpoint.region) =
  Byteio.Writer.u32 w r.cluster;
  Byteio.Writer.u32 w r.slice_index;
  Byteio.Writer.u32 w r.rank;
  Byteio.Writer.u64 w (Int64.bits_of_float r.weight);
  Byteio.Writer.u64 w r.start;
  Byteio.Writer.u64 w r.length;
  Byteio.Writer.u64 w r.warmup_actual

let read_region r =
  let cluster = Byteio.Reader.u32 r in
  let slice_index = Byteio.Reader.u32 r in
  let rank = Byteio.Reader.u32 r in
  let weight = Int64.float_of_bits (Byteio.Reader.u64 r) in
  let start = Byteio.Reader.u64 r in
  let length = Byteio.Reader.u64 r in
  let warmup_actual = Byteio.Reader.u64 r in
  { Simpoint.cluster; slice_index; rank; weight; start; length;
    warmup_actual }

let bounded_count r ~what n =
  if n > Byteio.Reader.remaining r then
    Diag.fail ~artifact:"simpoint-artifact" Diag.Count_out_of_range
      "%s declares %d entries in %d remaining bytes" what n
      (Byteio.Reader.remaining r);
  n

let encode_selection (sel : Simpoint.selection) =
  let w = Byteio.Writer.create () in
  Byteio.Writer.u64 w sel.params.slice_size;
  Byteio.Writer.u64 w sel.params.warmup;
  Byteio.Writer.u32 w sel.params.max_k;
  Byteio.Writer.u32 w sel.params.dims;
  Byteio.Writer.u64 w sel.params.seed;
  Byteio.Writer.u32 w sel.k;
  Byteio.Writer.u32 w sel.num_slices;
  Byteio.Writer.u64 w sel.total_instructions;
  Byteio.Writer.u32 w (List.length sel.regions);
  List.iter (write_region w) sel.regions;
  Byteio.Writer.u32 w (Array.length sel.alternates);
  Array.iter
    (fun alts ->
      Byteio.Writer.u32 w (List.length alts);
      List.iter (write_region w) alts)
    sel.alternates;
  Bytes.to_string (Byteio.Writer.contents w)

let decode_selection payload =
  decode ~artifact:"simpoint-artifact"
    (fun r ->
      let slice_size = Byteio.Reader.u64 r in
      let warmup = Byteio.Reader.u64 r in
      let max_k = Byteio.Reader.u32 r in
      let dims = Byteio.Reader.u32 r in
      let seed = Byteio.Reader.u64 r in
      let k = Byteio.Reader.u32 r in
      let num_slices = Byteio.Reader.u32 r in
      let total_instructions = Byteio.Reader.u64 r in
      let nregions = bounded_count r ~what:"regions" (Byteio.Reader.u32 r) in
      let regions = List.init nregions (fun _ -> read_region r) in
      let nclusters =
        bounded_count r ~what:"alternates" (Byteio.Reader.u32 r)
      in
      let alternates =
        Array.init nclusters (fun _ ->
            let n =
              bounded_count r ~what:"cluster alternates" (Byteio.Reader.u32 r)
            in
            List.init n (fun _ -> read_region r))
      in
      {
        Simpoint.k;
        regions;
        alternates;
        num_slices;
        total_instructions;
        params = { Simpoint.slice_size; warmup; max_k; dims; seed };
      })
    payload

(* --- ELFie bundle ----------------------------------------------------------- *)

let sysstate_prefix = "ss."

let encode_elfie (image, sysstate) =
  pack_files
    (("elf", Bytes.to_string (Elfie_elf.Image.write image))
    :: List.map
         (fun (suffix, content) -> (sysstate_prefix ^ suffix, content))
         (Elfie_pin.Sysstate.to_files sysstate))

let decode_elfie payload =
  Result.bind (unpack_files ~artifact:"elfie-artifact" payload)
    (fun files ->
      match List.assoc_opt "elf" files with
      | None ->
          Error
            (Diag.f ~artifact:"elfie-artifact" Diag.Missing_file
               "bundle has no 'elf' member")
      | Some elf ->
          Result.bind
            (Elfie_elf.Image.read_result ~artifact:"elfie-artifact"
               (Bytes.of_string elf))
            (fun image ->
              let ss_files =
                List.filter_map
                  (fun (name, content) ->
                    if
                      String.length name > String.length sysstate_prefix
                      && String.sub name 0 (String.length sysstate_prefix)
                         = sysstate_prefix
                    then
                      Some
                        ( String.sub name
                            (String.length sysstate_prefix)
                            (String.length name
                            - String.length sysstate_prefix),
                          content )
                    else None)
                  files
              in
              Result.map
                (fun ss -> (image, ss))
                (Elfie_pin.Sysstate.of_files_result
                   ~artifact:"elfie-artifact" ss_files)))

(* --- measurement record ----------------------------------------------------- *)

type measurement = {
  m_cluster : int;
  m_weight : float;
  m_cpi : float;
  m_stddev : float;
  m_instructions : int64;
  m_trials : int;
  m_failures : int;
}

let encode_measurement m =
  let w = Byteio.Writer.create () in
  Byteio.Writer.u32 w m.m_cluster;
  Byteio.Writer.u64 w (Int64.bits_of_float m.m_weight);
  Byteio.Writer.u64 w (Int64.bits_of_float m.m_cpi);
  Byteio.Writer.u64 w (Int64.bits_of_float m.m_stddev);
  Byteio.Writer.u64 w m.m_instructions;
  Byteio.Writer.u32 w m.m_trials;
  Byteio.Writer.u32 w m.m_failures;
  Bytes.to_string (Byteio.Writer.contents w)

let decode_measurement payload =
  decode ~artifact:"measurement-artifact"
    (fun r ->
      let m_cluster = Byteio.Reader.u32 r in
      let m_weight = Int64.float_of_bits (Byteio.Reader.u64 r) in
      let m_cpi = Int64.float_of_bits (Byteio.Reader.u64 r) in
      let m_stddev = Int64.float_of_bits (Byteio.Reader.u64 r) in
      let m_instructions = Byteio.Reader.u64 r in
      let m_trials = Byteio.Reader.u32 r in
      let m_failures = Byteio.Reader.u32 r in
      { m_cluster; m_weight; m_cpi; m_stddev; m_instructions; m_trials;
        m_failures })
    payload

(* --- cached compute wrappers ------------------------------------------------ *)

let cached_bbv ?on_result store key f =
  Store.get_or_compute_v ?on_result store key ~format:(format Store.Bbv)
    ~encode:encode_bbv ~decode:decode_bbv f

let cached_selection ?on_result store key f =
  Store.get_or_compute_v ?on_result store key ~format:(format Store.Simpoint)
    ~encode:encode_selection ~decode:decode_selection f

let cached_pinball ?on_result store key ~name f =
  Store.get_or_compute_v ?on_result store key ~format:(format Store.Pinball)
    ~encode:encode_pinball ~decode:(decode_pinball ~name) f

let cached_elfie ?on_result store key f =
  Store.get_or_compute_v ?on_result store key ~format:(format Store.Elfie)
    ~encode:encode_elfie ~decode:decode_elfie f

let cached_measurement ?on_result store key f =
  Store.get_or_compute_v ?on_result store key
    ~format:(format Store.Measurement) ~encode:encode_measurement
    ~decode:decode_measurement f
