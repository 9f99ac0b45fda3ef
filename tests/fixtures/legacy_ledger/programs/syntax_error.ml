fn main() {
    let x = ;
    return x;
}
