type t = Nf of string | Seq of t list | Par of t list

let nf name = Nf name

let flatten_seq = function Seq xs -> xs | t -> [ t ]

let flatten_par = function Par xs -> xs | t -> [ t ]

let seq = function
  | [] -> invalid_arg "Graph.seq: empty composition"
  | [ t ] -> t
  | ts -> Seq (List.concat_map flatten_seq ts)

let par = function
  | [] -> invalid_arg "Graph.par: empty composition"
  | [ t ] -> t
  | ts -> Par (List.concat_map flatten_par ts)

let rec nfs = function
  | Nf n -> [ n ]
  | Seq ts | Par ts -> List.concat_map nfs ts

let nf_count t = List.length (nfs t)

let rec equivalent_length = function
  | Nf _ -> 1
  | Seq ts -> List.fold_left (fun acc t -> acc + equivalent_length t) 0 ts
  | Par ts -> List.fold_left (fun acc t -> max acc (equivalent_length t)) 0 ts

let contains t name = List.mem name (nfs t)

let well_formed t =
  let rec no_empty = function
    | Nf _ -> true
    | Seq [] | Par [] -> false
    | Seq ts | Par ts -> List.for_all no_empty ts
  in
  if not (no_empty t) then Error "graph contains an empty composition"
  else
    let names = nfs t in
    let sorted = List.sort compare names in
    let rec dup = function
      | a :: b :: _ when a = b -> Some a
      | _ :: rest -> dup rest
      | [] -> None
    in
    match dup sorted with
    | Some n -> Error (Printf.sprintf "NF %S appears more than once" n)
    | None -> Ok ()

let rec pp fmt = function
  | Nf n -> Format.pp_print_string fmt n
  | Seq ts ->
      Format.pp_print_list
        ~pp_sep:(fun f () -> Format.pp_print_string f " -> ")
        pp_atom fmt ts
  | Par ts ->
      Format.pp_print_string fmt "(";
      Format.pp_print_list ~pp_sep:(fun f () -> Format.pp_print_string f " | ") pp fmt ts;
      Format.pp_print_string fmt ")"

and pp_atom fmt = function
  | Seq ts ->
      Format.pp_print_string fmt "(";
      pp fmt (Seq ts);
      Format.pp_print_string fmt ")"
  | t -> pp fmt t

let to_string t = Format.asprintf "%a" pp t

(* Graphviz export: each Par introduces a fork point (the preceding
   node or the ingress) and a merger diamond; Seq chains link tails to
   heads. Returns the DOT text; node ids are stable across calls. *)
let to_dot t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "digraph nfp {\n  rankdir=LR;\n";
  Buffer.add_string buf "  node [shape=box, style=rounded];\n";
  Buffer.add_string buf "  ingress [shape=circle, label=\"in\"];\n";
  Buffer.add_string buf "  egress [shape=circle, label=\"out\"];\n";
  let merge_count = ref 0 in
  (* Emit [t] with [heads] as its predecessors; return its tail nodes. *)
  let rec emit t heads =
    match t with
    | Nf n ->
        List.iter (fun h -> Buffer.add_string buf (Printf.sprintf "  %s -> %s;\n" h n)) heads;
        [ n ]
    | Seq ts -> List.fold_left (fun hs sub -> emit sub hs) heads ts
    | Par ts ->
        let tails = List.concat_map (fun sub -> emit sub heads) ts in
        incr merge_count;
        let m = Printf.sprintf "merge%d" !merge_count in
        Buffer.add_string buf
          (Printf.sprintf "  %s [shape=diamond, label=\"merge\"];\n" m);
        List.iter
          (fun tail -> Buffer.add_string buf (Printf.sprintf "  %s -> %s;\n" tail m))
          tails;
        [ m ]
  in
  let tails = emit t [ "ingress" ] in
  List.iter
    (fun tail -> Buffer.add_string buf (Printf.sprintf "  %s -> egress;\n" tail))
    tails;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
