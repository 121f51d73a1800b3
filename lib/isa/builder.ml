type label = int

type item =
  | Fixed of Insn.t
  | Jump of [ `Jmp | `Call ] * label
  | Branch of Insn.cond * label
  | Mov_label of Reg.gpr * label
  | Jmp_mem_label of label
  | Quad_label of label
  | Raw of bytes
  | Align of int

type t = {
  mutable items : item list;  (* reversed *)
  mutable item_count : int;
  mutable next_label : int;
  bindings : (label, int) Hashtbl.t;  (* label -> item index it precedes *)
  names : (label, string) Hashtbl.t;
  mutable named : label list;  (* reversed definition order *)
}

let create () =
  {
    items = [];
    item_count = 0;
    next_label = 0;
    bindings = Hashtbl.create 64;
    names = Hashtbl.create 16;
    named = [];
  }

let new_label ?name b =
  let l = b.next_label in
  b.next_label <- l + 1;
  (match name with
  | Some n ->
      Hashtbl.replace b.names l n;
      b.named <- l :: b.named
  | None -> ());
  l

let bind b l =
  if Hashtbl.mem b.bindings l then failwith "Builder.bind: label bound twice";
  Hashtbl.replace b.bindings l b.item_count

let here ?name b =
  let l = new_label ?name b in
  bind b l;
  l

let push b item =
  b.items <- item :: b.items;
  b.item_count <- b.item_count + 1

let ins b i = push b (Fixed i)
let jmp b l = push b (Jump (`Jmp, l))
let call b l = push b (Jump (`Call, l))
let jcc b c l = push b (Branch (c, l))
let mov_label b r l = push b (Mov_label (r, l))
let jmp_mem b l = push b (Jmp_mem_label l)
let quad_label b l = push b (Quad_label l)
let byte b v = push b (Raw (Bytes.make 1 (Char.chr (v land 0xff))))

let quad b v =
  let w = Elfie_util.Byteio.Writer.create ~capacity:8 () in
  Elfie_util.Byteio.Writer.u64 w v;
  push b (Raw (Elfie_util.Byteio.Writer.contents w))

let raw b bts = push b (Raw bts)
let zeros b n = push b (Raw (Bytes.make n '\000'))
let align b n = push b (Align n)

(* Encoded sizes of the label-referencing pseudo-items are those of their
   concrete forms with dummy operands. Computed at module initialisation:
   programs are assembled on several pool domains at once, and a lazy
   value forced from two domains raises [Lazy.Undefined]. *)
let jmp_len = Codec.length (Insn.Jmp 0)
let call_len = Codec.length (Insn.Call 0)
let branch_len = Codec.length (Insn.Jcc (Insn.Eq, 0))
let mov_label_len = Codec.length (Insn.Mov_ri (Reg.RAX, 0L))
let jmp_mem_len = Codec.length (Insn.Jmp_m (Insn.mem_abs 0L))

let item_size offset = function
  | Fixed i -> Codec.length i
  | Jump (`Jmp, _) -> jmp_len
  | Jump (`Call, _) -> call_len
  | Branch _ -> branch_len
  | Mov_label _ -> mov_label_len
  | Jmp_mem_label _ -> jmp_mem_len
  | Quad_label _ -> 8
  | Raw bts -> Bytes.length bts
  | Align n ->
      if n <= 0 || n land (n - 1) <> 0 then failwith "Builder: bad alignment";
      (n - (offset land (n - 1))) land (n - 1)

type program = {
  base : int64;
  code : bytes;
  symbols : (string * int64) list;
}

(* Offsets of each item, plus total size. *)
let layout b =
  let items = Array.of_list (List.rev b.items) in
  let offsets = Array.make (Array.length items + 1) 0 in
  Array.iteri
    (fun i item -> offsets.(i + 1) <- offsets.(i) + item_size offsets.(i) item)
    items;
  (items, offsets)

let label_offset b offsets l =
  match Hashtbl.find_opt b.bindings l with
  | Some idx -> offsets.(idx)
  | None ->
      let name =
        match Hashtbl.find_opt b.names l with Some n -> n | None -> string_of_int l
      in
      failwith (Printf.sprintf "Builder.assemble: unbound label %s" name)

let assemble b ~base =
  let items, offsets = layout b in
  let w = Elfie_util.Byteio.Writer.create ~capacity:(offsets.(Array.length items)) () in
  let addr_of l = Int64.add base (Int64.of_int (label_offset b offsets l)) in
  Array.iteri
    (fun i item ->
      let next = offsets.(i + 1) in
      (match item with
      | Fixed ins -> Codec.encode w ins
      | Jump (kind, l) ->
          let rel = label_offset b offsets l - next in
          Codec.encode w (match kind with `Jmp -> Insn.Jmp rel | `Call -> Insn.Call rel)
      | Branch (c, l) ->
          let rel = label_offset b offsets l - next in
          Codec.encode w (Insn.Jcc (c, rel))
      | Mov_label (r, l) -> Codec.encode w (Insn.Mov_ri (r, addr_of l))
      | Jmp_mem_label l -> Codec.encode w (Insn.Jmp_m (Insn.mem_abs (addr_of l)))
      | Quad_label l -> Elfie_util.Byteio.Writer.u64 w (addr_of l)
      | Raw bts -> Elfie_util.Byteio.Writer.bytes w bts
      | Align _ -> Elfie_util.Byteio.Writer.pad_to w next);
      assert (Elfie_util.Byteio.Writer.length w = next))
    items;
  let symbols =
    List.rev_map
      (fun l -> (Hashtbl.find b.names l, addr_of l))
      (List.filter (Hashtbl.mem b.bindings) b.named)
  in
  { base; code = Elfie_util.Byteio.Writer.contents w; symbols }

let resolve b program l =
  let _, offsets = layout b in
  Int64.add program.base (Int64.of_int (label_offset b offsets l))
